// Randomized N-rank point-to-point stress test for the sharded communication
// engine. Every rank pair (r, r^1) exchanges a deterministic pseudo-random
// message schedule mixing tags, wildcard receives (ANY_TAG and ANY_SOURCE),
// deliberate truncation and Waitall batches. Because the schedule depends only
// on the direction's parity role — not on the concrete rank or world size —
// the exact sequence of Status results a rank observes must be identical at 2
// and at 8 ranks, and identical across all pairs of one world. The payload of
// every message encodes its send index, so per-(src,dst,tag) FIFO order is
// asserted directly on the received data.
// The same program sweeps both backends: thread ranks record their Status
// sequences in-process; proc ranks (forked) ship theirs back through
// publish_result together with a child-side gtest failure flag, and the
// decoded sequences must be byte-identical to the thread backend's at every
// world size — the two transports are observationally equivalent.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "mpisim/datatype.hpp"
#include "mpisim/request.hpp"
#include "mpisim/world.hpp"

namespace {

using mpisim::Backend;
using mpisim::Comm;
using mpisim::Datatype;
using mpisim::kAnySource;
using mpisim::kAnyTag;
using mpisim::MpiError;
using mpisim::Request;
using mpisim::Status;
using mpisim::World;

constexpr int kMessages = 24;
constexpr int kTags = 3;
constexpr int kMaxCount = 4;  // doubles per message

enum class RecvMode {
  kSpecific,   // blocking recv with exact (source, tag)
  kAnyTagRecv, // blocking recv with (source, kAnyTag)
  kWildSource, // blocking recv with (kAnySource, tag)
  kTruncated,  // blocking recv with capacity one element short
  kBatch,      // member of an irecv + waitall batch (specific tags)
};

struct MsgSpec {
  int tag{};
  int count{};
  RecvMode mode{RecvMode::kSpecific};
};

/// A Status flattened for recording and equality comparison across runs.
struct Rec {
  int source{};
  int tag{};
  std::uint64_t bytes{};
  int error{};

  friend bool operator==(const Rec& a, const Rec& b) {
    return a.source == b.source && a.tag == b.tag && a.bytes == b.bytes && a.error == b.error;
  }
};

[[nodiscard]] Rec flatten(const Status& st) {
  return Rec{st.source, st.tag, st.received_bytes, static_cast<int>(st.error)};
}

/// Payload element j of the i-th message in direction `dir_role`
/// (0 = even->odd, 1 = odd->even). The index is recoverable from element 0.
[[nodiscard]] double payload_value(int dir_role, int i, int j) {
  return 1000.0 * dir_role + 8.0 * i + j;
}

[[nodiscard]] int decode_index(int dir_role, double value) {
  return static_cast<int>((value - 1000.0 * dir_role) / 8.0);
}

/// The message schedule for one direction. Depends only on the seed and the
/// direction's parity role, so every pair in every world size agrees on it.
[[nodiscard]] std::vector<MsgSpec> make_schedule(std::uint64_t seed, int dir_role) {
  common::SplitMix64 rng(seed * 1315423911ull + static_cast<std::uint64_t>(dir_role));
  std::vector<MsgSpec> sched(kMessages);
  for (MsgSpec& m : sched) {
    m.tag = static_cast<int>(rng.next_below(kTags));
    m.count = 1 + static_cast<int>(rng.next_below(kMaxCount));
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:
        m.mode = RecvMode::kSpecific;
        break;
      case 3:
        m.mode = RecvMode::kAnyTagRecv;
        break;
      case 4:
        m.mode = RecvMode::kWildSource;
        break;
      case 5:
        // Truncation needs room to cut; fall back to a plain recv otherwise.
        m.mode = m.count >= 2 ? RecvMode::kTruncated : RecvMode::kSpecific;
        break;
      default:
        m.mode = RecvMode::kBatch;
        break;
    }
  }
  return sched;
}

/// One rank's half of the pairwise stress exchange. Appends the Status
/// records observed by this rank's non-batch receives to `recs` (void return
/// so gtest ASSERTs can bail out).
void run_pair_traffic(Comm& comm, std::uint64_t seed, std::vector<Rec>& recs) {
  const int rank = comm.rank();
  const int partner = rank ^ 1;
  const int my_role = rank % 2;
  const int peer_role = 1 - my_role;

  // -- Send phase: all outgoing messages as isends, completed with waitall. ----
  const std::vector<MsgSpec> out = make_schedule(seed, my_role);
  std::vector<std::vector<double>> sendbufs(kMessages);
  std::vector<Request*> sreqs(kMessages, nullptr);
  for (int i = 0; i < kMessages; ++i) {
    sendbufs[i].resize(static_cast<std::size_t>(out[i].count));
    for (int j = 0; j < out[i].count; ++j) {
      sendbufs[i][static_cast<std::size_t>(j)] = payload_value(my_role, i, j);
    }
    ASSERT_EQ(comm.isend(sendbufs[i].data(), sendbufs[i].size(), Datatype::float64(), partner,
                         out[i].tag, &sreqs[i]),
              MpiError::kSuccess)
        << "rank " << rank << " isend " << i;
  }
  ASSERT_EQ(comm.waitall(sreqs), MpiError::kSuccess) << "rank " << rank;

  // -- Receive phase: consume the partner's schedule strictly in order. -------
  // Per-(src,dst,tag) FIFO bookkeeping: the n-th message received with tag t
  // must be the n-th message the partner *sent* with tag t.
  const std::vector<MsgSpec> in = make_schedule(seed, peer_role);
  std::array<std::vector<int>, kTags> sent_by_tag;
  for (int i = 0; i < kMessages; ++i) {
    sent_by_tag[static_cast<std::size_t>(in[i].tag)].push_back(i);
  }
  std::array<std::size_t, kTags> next_by_tag{};

  const auto check_fifo = [&](int tag, int decoded_index) {
    std::size_t& n = next_by_tag[static_cast<std::size_t>(tag)];
    ASSERT_LT(n, sent_by_tag[static_cast<std::size_t>(tag)].size());
    EXPECT_EQ(decoded_index, sent_by_tag[static_cast<std::size_t>(tag)][n])
        << "rank " << rank << ": tag " << tag << " receive #" << n << " out of FIFO order";
    ++n;
  };

  int i = 0;
  while (i < kMessages) {
    const MsgSpec& m = in[static_cast<std::size_t>(i)];
    if (m.mode == RecvMode::kBatch) {
      // Consecutive batch members become one irecv group completed by a
      // single waitall; posting order fixes the per-tag pairing.
      int end = i;
      while (end < kMessages && in[static_cast<std::size_t>(end)].mode == RecvMode::kBatch) {
        ++end;
      }
      const int batch = end - i;
      std::vector<std::vector<double>> bufs(static_cast<std::size_t>(batch));
      std::vector<Request*> reqs(static_cast<std::size_t>(batch), nullptr);
      for (int b = 0; b < batch; ++b) {
        const MsgSpec& bm = in[static_cast<std::size_t>(i + b)];
        bufs[static_cast<std::size_t>(b)].resize(static_cast<std::size_t>(bm.count));
        ASSERT_EQ(comm.irecv(bufs[static_cast<std::size_t>(b)].data(),
                             static_cast<std::size_t>(bm.count), Datatype::float64(), partner,
                             bm.tag, &reqs[static_cast<std::size_t>(b)]),
                  MpiError::kSuccess);
      }
      ASSERT_EQ(comm.waitall(reqs), MpiError::kSuccess) << "rank " << rank;
      for (int b = 0; b < batch; ++b) {
        const MsgSpec& bm = in[static_cast<std::size_t>(i + b)];
        const int decoded = decode_index(peer_role, bufs[static_cast<std::size_t>(b)][0]);
        EXPECT_EQ(decoded, i + b) << "rank " << rank << " batch member " << b;
        check_fifo(bm.tag, decoded);
        for (int j = 0; j < bm.count; ++j) {
          EXPECT_EQ(bufs[static_cast<std::size_t>(b)][static_cast<std::size_t>(j)],
                    payload_value(peer_role, i + b, j));
        }
      }
      i = end;
      continue;
    }

    std::vector<double> buf(static_cast<std::size_t>(m.count));
    Status st;
    MpiError expected = MpiError::kSuccess;
    std::size_t capacity = static_cast<std::size_t>(m.count);
    int source = partner;
    int tag = m.tag;
    switch (m.mode) {
      case RecvMode::kAnyTagRecv:
        tag = kAnyTag;
        break;
      case RecvMode::kWildSource:
        // Pairs are disjoint, so the wildcard can only see the partner; this
        // still drives the scan-all-channels slow path in the mailbox.
        source = kAnySource;
        break;
      case RecvMode::kTruncated:
        capacity = static_cast<std::size_t>(m.count) - 1;
        expected = MpiError::kTruncate;
        break;
      default:
        break;
    }
    ASSERT_EQ(comm.recv(buf.data(), capacity, Datatype::float64(), source, tag, &st), expected)
        << "rank " << rank << " recv " << i;
    EXPECT_EQ(st.source, partner);
    EXPECT_EQ(st.tag, m.tag);
    EXPECT_EQ(st.error, expected);
    EXPECT_EQ(st.received_bytes, capacity * sizeof(double));
    const int decoded = decode_index(peer_role, buf[0]);
    EXPECT_EQ(decoded, i) << "rank " << rank << ": channel FIFO violated";
    check_fifo(m.tag, decoded);
    for (std::size_t j = 0; j < capacity; ++j) {
      EXPECT_EQ(buf[j], payload_value(peer_role, i, static_cast<int>(j)));
    }
    recs.push_back(flatten(st));
    ++i;
  }
}

/// Runs the full stress program at `world_size` ranks and returns each rank's
/// recorded Status sequence. With the proc backend each rank is a forked
/// process: it publishes its Rec sequence (prefixed by a child-side gtest
/// failure flag) as a result blob, and this function decodes the blobs and
/// fails if any child recorded an assertion failure the parent cannot see.
std::vector<std::vector<Rec>> run_world(int world_size, std::uint64_t seed,
                                        Backend backend = Backend::kThread) {
  std::vector<std::vector<Rec>> recs(static_cast<std::size_t>(world_size));
  const bool proc = backend == Backend::kProc;
  World world(world_size, backend);
  world.set_watchdog_timeout(std::chrono::milliseconds(proc ? 10000 : 3000));
  world.run([&](Comm comm) {
    run_pair_traffic(comm, seed, recs[static_cast<std::size_t>(comm.rank())]);

    // -- Ring epilogue: ANY_SOURCE across arbitrary ranks. -------------------
    // After a barrier every rank passes a token to its right neighbour and
    // receives from *somewhere* — the envelope must name the left neighbour.
    ASSERT_EQ(comm.barrier(), MpiError::kSuccess);
    const int size = comm.size();
    const double token = comm.rank();
    ASSERT_EQ(comm.send(&token, 1, Datatype::float64(), (comm.rank() + 1) % size, 77),
              MpiError::kSuccess);
    double got = -1.0;
    Status st;
    ASSERT_EQ(comm.recv(&got, 1, Datatype::float64(), kAnySource, 77, &st), MpiError::kSuccess);
    const int left = (comm.rank() + size - 1) % size;
    EXPECT_EQ(st.source, left);
    EXPECT_EQ(got, static_cast<double>(left));

    if (proc) {
      // Ship [failed-flag][Rec...] back to the parent; Rec is a trivially
      // copyable POD and parent/child are the same binary.
      const std::vector<Rec>& mine = recs[static_cast<std::size_t>(comm.rank())];
      std::vector<std::byte> blob(sizeof(std::uint32_t) + mine.size() * sizeof(Rec));
      const std::uint32_t failed = ::testing::Test::HasFailure() ? 1 : 0;
      std::memcpy(blob.data(), &failed, sizeof failed);
      std::memcpy(blob.data() + sizeof failed, mine.data(), mine.size() * sizeof(Rec));
      mpisim::publish_result(comm, blob);
    }
  });
  if (proc) {
    for (int r = 0; r < world_size; ++r) {
      const std::vector<std::byte>& blob = world.rank_result(r);
      if (blob.size() < sizeof(std::uint32_t)) {
        ADD_FAILURE() << "rank " << r << " published no result";
        continue;
      }
      std::uint32_t failed = 0;
      std::memcpy(&failed, blob.data(), sizeof failed);
      EXPECT_EQ(failed, 0u) << "rank " << r << " recorded a child-side assertion failure";
      const std::size_t payload = blob.size() - sizeof failed;
      if (payload % sizeof(Rec) != 0) {
        ADD_FAILURE() << "rank " << r << " published a malformed blob";
        continue;
      }
      recs[static_cast<std::size_t>(r)].resize(payload / sizeof(Rec));
      std::memcpy(recs[static_cast<std::size_t>(r)].data(), blob.data() + sizeof failed, payload);
    }
  }
  return recs;
}

TEST(MpisimStressTest, RandomizedPairTrafficIsFifoWithStableStatuses) {
  for (const std::uint64_t seed : {1ull, 42ull}) {
    const auto at2 = run_world(2, seed);
    const auto at8 = run_world(8, seed);

    // The engine's matching decisions must not depend on the world size: the
    // Status sequences of ranks 0 and 1 agree between the 2- and 8-rank runs.
    EXPECT_EQ(at2[0], at8[0]) << "seed " << seed;
    EXPECT_EQ(at2[1], at8[1]) << "seed " << seed;

    // Within one world all even (resp. odd) ranks run the identical pair
    // program, so their Status sequences match rank 0's (resp. rank 1's)
    // except for the source rank, which names their own partner.
    for (int r = 2; r < 8; ++r) {
      auto expect = at8[static_cast<std::size_t>(r % 2)];
      for (Rec& rec : expect) {
        rec.source = r ^ 1;
      }
      EXPECT_EQ(at8[static_cast<std::size_t>(r)], expect) << "rank " << r << " seed " << seed;
    }
    EXPECT_FALSE(at2[0].empty());
  }
}

// The proc backend must be observationally equivalent to the thread backend:
// the same seeds at 2, 8 and 32 ranks yield identical per-rank Status
// sequences (source, tag, byte count, error — including deliberate
// truncation) and the same per-(src,dst,tag) FIFO order, which
// run_pair_traffic asserts on the payload inside every rank.
TEST(MpisimStressTest, ProcBackendStatusesMatchThreadBackend) {
  constexpr std::uint64_t kSeed = 42;
  for (const int ranks : {2, 8, 32}) {
    const auto threaded = run_world(ranks, kSeed, Backend::kThread);
    const auto forked = run_world(ranks, kSeed, Backend::kProc);
    ASSERT_EQ(threaded.size(), forked.size());
    for (int r = 0; r < ranks; ++r) {
      EXPECT_EQ(threaded[static_cast<std::size_t>(r)], forked[static_cast<std::size_t>(r)])
          << "backend Status divergence at " << ranks << " ranks, rank " << r;
    }
    EXPECT_FALSE(forked[0].empty());
  }
}

}  // namespace
