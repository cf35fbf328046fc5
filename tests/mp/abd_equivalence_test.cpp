// Equivalence property test for frontier (delta) reads — the key safety
// argument of the wire optimisation (DESIGN.md §9).
//
// Legacy mode differs from delta mode only on the reader side: the read
// request carries an empty frontier instead of the watermark vector.
// Responder code is identical in both modes, so a delta-mode world and a
// legacy-mode world driven by the same operation schedule issue the *same
// sequence of send() calls* — and since the simulated Network draws one
// delay per send() in call order, both worlds execute bit-identical
// schedules. That turns "the merged view of a frontier read equals the
// merged view of a full read" from a distributional claim into a strict
// per-schedule equality, which this file asserts element- and order-wise
// for every read result and every final local view, across crash and
// forger configurations and a seed sweep.
#include "mp/abd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "mp/network.hpp"

namespace amm::mp {
namespace {

struct World {
  crypto::KeyRegistry keys;
  Network net;
  std::vector<std::unique_ptr<AbdNode>> nodes;  // the correct nodes
  std::vector<std::unique_ptr<CrashedNode>> dead;
  std::unique_ptr<ForgerNode> forger;

  World(u32 n, u32 crashed, bool with_forger, u64 seed, AbdConfig config)
      : keys(n, seed), net(n, 0.05, 0.5, Rng(seed + 1)) {
    const u32 faulty = crashed + (with_forger ? 1u : 0u);
    AMM_EXPECTS(faulty < (n + 1) / 2);  // keep a correct majority
    const u32 correct = n - faulty;
    for (u32 i = 0; i < correct; ++i) {
      nodes.push_back(std::make_unique<AbdNode>(NodeId{i}, net, keys, config));
    }
    for (u32 i = correct; i < correct + crashed; ++i) {
      dead.push_back(std::make_unique<CrashedNode>(NodeId{i}, net));
    }
    if (with_forger) {
      forger = std::make_unique<ForgerNode>(NodeId{n - 1}, /*victim=*/NodeId{0}, net, keys);
    }
  }
};

/// Drives `world` through a deterministic schedule of interleaved appends
/// and reads derived from `schedule_seed` (independent of the network's
/// delay stream). Returns every read result in completion order plus the
/// final local views — the observable behaviour the two modes must share.
struct Observation {
  std::vector<std::vector<SignedAppend>> reads;
  std::vector<std::vector<SignedAppend>> final_views;
  u64 messages = 0;
};

Observation run_schedule(World& world, u64 schedule_seed) {
  Observation obs;
  Rng rng(schedule_seed);
  const usize correct = world.nodes.size();
  i64 next_value = 1;
  for (u32 batch = 0; batch < 6; ++batch) {
    // A burst of concurrent appends (some nodes several, exercising the
    // pipeline), then a burst of concurrent reads, then run to idle — so
    // appends and reads from different nodes interleave on the wire.
    const u64 appends = 1 + rng.uniform_below(5);
    for (u64 a = 0; a < appends; ++a) {
      const usize who = static_cast<usize>(rng.uniform_below(correct));
      world.nodes[who]->begin_append(next_value++, [] {});
    }
    const u64 readers = 1 + rng.uniform_below(3);
    for (u64 r = 0; r < readers; ++r) {
      const usize who = static_cast<usize>(rng.uniform_below(correct));
      world.nodes[who]->begin_read([&obs](const std::vector<SignedAppend>& view) {
        obs.reads.push_back(view);
      });
    }
    world.net.queue().run();
  }
  for (const auto& node : world.nodes) obs.final_views.push_back(node->local_view());
  obs.messages = world.net.messages_sent();
  return obs;
}

void expect_equal_views(const std::vector<SignedAppend>& delta,
                        const std::vector<SignedAppend>& legacy, const char* what, u64 seed) {
  ASSERT_EQ(delta.size(), legacy.size()) << what << " seed=" << seed;
  for (usize i = 0; i < delta.size(); ++i) {
    EXPECT_EQ(delta[i], legacy[i]) << what << "[" << i << "] seed=" << seed;
    EXPECT_EQ(delta[i].seq, legacy[i].seq) << what << "[" << i << "] seed=" << seed;
  }
}

void run_equivalence(u32 n, u32 crashed, bool with_forger) {
  for (u64 seed = 1; seed <= 12; ++seed) {
    const AbdConfig delta_config{.delta_reads = true, .max_pipeline = 8};
    const AbdConfig legacy_config{.delta_reads = false, .max_pipeline = 8};
    World delta_world(n, crashed, with_forger, seed, delta_config);
    World legacy_world(n, crashed, with_forger, seed, legacy_config);
    const Observation delta = run_schedule(delta_world, seed * 977);
    const Observation legacy = run_schedule(legacy_world, seed * 977);

    // Same send sequence ⇒ same schedule: message counts must agree, every
    // read must return the identical record sequence, and every node must
    // end with the identical local view (element- AND order-identical).
    EXPECT_EQ(delta.messages, legacy.messages) << "seed=" << seed;
    ASSERT_EQ(delta.reads.size(), legacy.reads.size()) << "seed=" << seed;
    for (usize r = 0; r < delta.reads.size(); ++r) {
      expect_equal_views(delta.reads[r], legacy.reads[r], "read", seed);
    }
    ASSERT_EQ(delta.final_views.size(), legacy.final_views.size());
    for (usize v = 0; v < delta.final_views.size(); ++v) {
      expect_equal_views(delta.final_views[v], legacy.final_views[v], "final view", seed);
    }
    // Sanity: the sweep actually exercised delta serving.
    u64 delta_served = 0;
    for (const auto& node : delta_world.nodes) {
      delta_served += node->stats().reads_served_delta;
    }
    EXPECT_GT(delta_served, 0u) << "seed=" << seed;
  }
}

TEST(AbdEquivalence, AllCorrectSmall) { run_equivalence(3, 0, false); }

TEST(AbdEquivalence, AllCorrectLarger) { run_equivalence(5, 0, false); }

TEST(AbdEquivalence, WithCrashedMinority) { run_equivalence(5, 1, false); }

TEST(AbdEquivalence, WithForger) { run_equivalence(5, 0, true); }

TEST(AbdEquivalence, WithCrashAndForger) { run_equivalence(7, 1, true); }

// ---- decided-prefix compaction (DESIGN.md §8) ----
//
// Retain-mode compaction folds the stable prefix into the checkpoint but
// keeps every record body in the view. It sends no messages, answers no
// request differently, and never mutates watermarks — so a compacting
// world and a non-compacting world driven by the same schedule execute
// the same bit-identical send sequence, and the equality below is strict
// per schedule, exactly like the delta/legacy pair above.

void run_compaction_equivalence(u32 n, u32 crashed, bool with_forger) {
  for (u64 seed = 1; seed <= 12; ++seed) {
    // Tight lag/quantum/interval so the sweep folds early and often.
    const CompactConfig compact{.enabled = true,
                                .retain_records = true,
                                .lag = 2,
                                .quantum = 1,
                                .auto_interval = 4};
    const AbdConfig compacting{.delta_reads = true, .max_pipeline = 8, .compact = compact};
    const AbdConfig unbounded{.delta_reads = true, .max_pipeline = 8};
    World compact_world(n, crashed, with_forger, seed, compacting);
    World plain_world(n, crashed, with_forger, seed, unbounded);
    // Pre-roll: every correct node appends a few rounds, so every live
    // author's watermark advances and the stability cut actually moves
    // (the random schedule alone can starve an author). Identical in both
    // worlds, so the send sequences still match call for call.
    for (World* world : {&compact_world, &plain_world}) {
      for (u32 round = 0; round < 4; ++round) {
        for (auto& node : world->nodes) {
          node->begin_append(static_cast<i64>(round) - 1, [] {});
        }
        world->net.queue().run();
      }
    }
    const Observation folded = run_schedule(compact_world, seed * 977);
    const Observation plain = run_schedule(plain_world, seed * 977);

    EXPECT_EQ(folded.messages, plain.messages) << "seed=" << seed;
    ASSERT_EQ(folded.reads.size(), plain.reads.size()) << "seed=" << seed;
    for (usize r = 0; r < folded.reads.size(); ++r) {
      expect_equal_views(folded.reads[r], plain.reads[r], "read", seed);
    }
    ASSERT_EQ(folded.final_views.size(), plain.final_views.size());
    for (usize v = 0; v < folded.final_views.size(); ++v) {
      expect_equal_views(folded.final_views[v], plain.final_views[v], "final view", seed);
    }

    // Sanity: the compacting world actually folded records — only
    // guaranteed when every author appends. A crashed or forging author
    // never advances its own register, which soundly pins the stability
    // cut at 0 (min over per-author watermarks): the faulty worlds prove
    // equivalence of the *machinery*, the fault-free ones prove it folds.
    if (crashed == 0 && !with_forger) {
      u64 total_folded = 0;
      for (const auto& node : compact_world.nodes) {
        total_folded += node->stats().records_folded;
      }
      EXPECT_GT(total_folded, 0u) << "seed=" << seed;
    }
    for (const auto& a : compact_world.nodes) {
      for (const auto& b : compact_world.nodes) {
        if (a->checkpoint().folded_below == b->checkpoint().folded_below) {
          EXPECT_TRUE(a->checkpoint().structurally_equal(b->checkpoint())) << "seed=" << seed;
        }
      }
    }
  }
}

TEST(AbdEquivalence, CompactionInvisibleAllCorrect) {
  run_compaction_equivalence(3, 0, false);
  run_compaction_equivalence(5, 0, false);
}

TEST(AbdEquivalence, CompactionInvisibleWithCrashedMinority) {
  run_compaction_equivalence(5, 1, false);
}

TEST(AbdEquivalence, CompactionInvisibleWithForger) { run_compaction_equivalence(5, 0, true); }

TEST(AbdEquivalence, CompactionInvisibleWithCrashAndForger) {
  run_compaction_equivalence(7, 1, true);
}

TEST(AbdEquivalence, CompactionDecisionsExactAtAndPastTheCut) {
  // decide_first_k over the uncompacted view must equal the checkpoint
  // rule over (checkpoint, suffix) for every k at or past the fold — the
  // §5.3 exactness argument, checked on real schedules. (The decision rule
  // lives in net/, but its input is the mp view; keeping the check here
  // runs it across the same crash/forger worlds as the views above.)
  for (u64 seed = 1; seed <= 8; ++seed) {
    const CompactConfig compact{.enabled = true,
                                .retain_records = true,
                                .lag = 2,
                                .quantum = 1,
                                .auto_interval = 4};
    World world(5, 0, false, seed, AbdConfig{.delta_reads = true, .max_pipeline = 8,
                                             .compact = compact});
    run_schedule(world, seed * 13);
    for (const auto& node : world.nodes) {
      const Checkpoint& ckpt = node->checkpoint();
      if (ckpt.folded_records == 0) continue;
      // Fold the partial sums by hand: sort the full view canonically and
      // compare sign sums at every k >= folded_records. The live suffix,
      // filtered from the sorted view, is in canonical order too.
      std::vector<SignedAppend> sorted = node->local_view();
      std::sort(sorted.begin(), sorted.end(), [](const SignedAppend& a, const SignedAppend& b) {
        if (a.seq != b.seq) return a.seq < b.seq;
        return a.author.index < b.author.index;
      });
      std::vector<SignedAppend> suffix;
      for (const SignedAppend& rec : sorted) {
        if (rec.seq >= ckpt.folded_below) suffix.push_back(rec);
      }
      for (u64 k = ckpt.folded_records; k <= sorted.size(); ++k) {
        i64 direct = 0;
        for (u64 i = 0; i < k; ++i) direct += sorted[i].value >= 0 ? 1 : -1;
        i64 via_ckpt = ckpt.vote_sum;
        for (u64 i = 0; i < k - ckpt.folded_records; ++i) {
          via_ckpt += suffix[i].value >= 0 ? 1 : -1;
        }
        EXPECT_EQ(direct, via_ckpt) << "seed=" << seed << " k=" << k;
      }
    }
  }
}

TEST(AbdEquivalence, DeltaBytesNeverExceedLegacy) {
  // The inequality the whole optimisation exists for, checked on the same
  // schedules: delta mode moves no more bytes than legacy mode.
  for (u64 seed = 1; seed <= 8; ++seed) {
    World delta_world(5, 0, false, seed, AbdConfig{.delta_reads = true, .max_pipeline = 8});
    World legacy_world(5, 0, false, seed, AbdConfig{.delta_reads = false, .max_pipeline = 8});
    run_schedule(delta_world, seed * 31);
    run_schedule(legacy_world, seed * 31);
    EXPECT_LE(delta_world.net.bytes_sent(), legacy_world.net.bytes_sent()) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace amm::mp
