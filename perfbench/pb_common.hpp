// Shared plumbing of the benchmark's C++ tools: option parsing through the
// repository's tools::OptionSet, the clock, raw-sample files and small
// JSON output helpers. Statistics are not computed here: the tools write
// raw samples and run.py (pbstats.py) reduces them, so one tested
// implementation of every percentile exists.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/types.hpp"
#include "tools/cli.hpp"

namespace pb {

using amm::i64;
using amm::u64;

/// Parses the tool's declared options. Returns -1 to go on, else the exit
/// code: 0 after --help, 2 on a usage error (printed under `program`).
inline int parse_options(amm::tools::OptionSet& opts, const char* program, int argc,
                         char** argv) {
  switch (opts.parse(argc, argv)) {
    case amm::tools::ParseStatus::kHelp:
      opts.print_help(stdout);
      return 0;
    case amm::tools::ParseStatus::kError:
      std::fprintf(stderr, "%s: %s\n", program, opts.error().c_str());
      return 2;
    case amm::tools::ParseStatus::kOk:
      break;
  }
  return -1;
}

inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time the calling thread has used: its service time, which host
/// preemption and steal do not inflate.
inline i64 thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<i64>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time all threads of this process have used.
inline i64 process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<i64>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The raw `/proc/<pid>/stat` line ("self" for this process); empty when
/// the process is gone. run.py parses the CPU fields.
inline std::string proc_stat_line(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string line;
  std::getline(in, line);
  return line;
}

/// The first ("cpu ...") line of /proc/stat: host-wide CPU time by state,
/// steal included.
inline std::string host_cpu_line() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return line;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

inline std::string json_string_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(items[i]);
  }
  out += ']';
  return out;
}

/// Writes `values` as little-endian int64 words (the host is x86-64).
inline bool write_i64s(const std::string& path, const std::vector<i64>& values) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t wrote = std::fwrite(values.data(), sizeof(i64), values.size(), f);
  return std::fclose(f) == 0 && wrote == values.size();
}

/// A number with every digit, so no measured value is rounded before
/// run.py sees it.
inline std::string json_number(double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

template <typename T>
std::string json_list(const std::vector<T>& values) {
  std::string s = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) s += ',';
    s += json_number(static_cast<double>(values[i]));
  }
  s += ']';
  return s;
}

/// A flat JSON object built key by key.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) { return raw(key, json_number(v)); }
  JsonObject& integer(const std::string& key, i64 v) { return raw(key, std::to_string(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += json_string(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  std::string text() const {
    std::string out = "{";
    out += body_;
    out += '}';
    return out;
  }

 private:
  std::string body_;
};

}  // namespace pb
