// Randomized N-rank point-to-point stress test for the matching engine. Every
// rank pair (r, r^1) exchanges a deterministic pseudo-random message schedule
// mixing tags, wildcard receives (ANY_TAG and ANY_SOURCE), deliberate
// truncation, receives typed differently from the send (int64 against
// float64 sets signature_mismatch, MPI_BYTE does not), probes and iprobes
// before receives, and irecv batches completed by Waitall or a Waitany loop. Because the schedule depends only
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
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "mpisim/datatype.hpp"
#include "mpisim/request.hpp"
#include "mpisim/world.hpp"
#include "schedsim/controller.hpp"
#include "schedsim/decision_log.hpp"

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

constexpr int kMessages = 32;
constexpr int kTags = 3;
constexpr int kMaxCount = 4;  // doubles per message

enum class RecvMode {
  kSpecific,   // blocking recv with exact (source, tag)
  kAnyTagRecv, // blocking recv with (source, kAnyTag)
  kWildSource, // blocking recv with (kAnySource, tag)
  kTruncated,  // blocking recv with capacity one element short
  kMistyped,   // blocking recv typed int64 against the float64 send
  kBytes,      // blocking recv typed MPI_BYTE (an untyped view, no mismatch)
  kBatch,      // member of an irecv + waitall batch (specific tags)
  kAnyBatch,   // member of an irecv batch completed by a waitany loop
};

enum class ProbeMode {
  kNone,
  kProbe,   // blocking probe with the receive's (source, tag) first
  kIprobe,  // iprobe with the receive's (source, tag) until it reports a match
};

struct MsgSpec {
  int tag{};
  int count{};
  RecvMode mode{RecvMode::kSpecific};
  ProbeMode probe{ProbeMode::kNone};
};

/// What a record describes.
enum class RecKind : int { kRecv, kProbe, kWaitany };

/// A Status flattened for recording and equality comparison across runs.
struct Rec {
  RecKind kind{RecKind::kRecv};
  int source{};
  int tag{};
  std::uint64_t bytes{};
  int error{};
  int signature_mismatch{};
  int index{-1};  ///< waitany's index; -1 for other records

  friend bool operator==(const Rec&, const Rec&) = default;
};

[[nodiscard]] Rec flatten(const Status& st, RecKind kind = RecKind::kRecv, int index = -1) {
  return Rec{kind,          st.source, st.tag, st.received_bytes, static_cast<int>(st.error),
             st.signature_mismatch ? 1 : 0, index};
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
    switch (rng.next_below(12)) {
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
      case 6:
        m.mode = RecvMode::kMistyped;
        break;
      case 7:
        m.mode = RecvMode::kBytes;
        break;
      case 8:
      case 9:
        m.mode = RecvMode::kAnyBatch;
        break;
      default:
        m.mode = RecvMode::kBatch;
        break;
    }
    switch (rng.next_below(4)) {
      case 0:
        m.probe = ProbeMode::kProbe;
        break;
      case 1:
        m.probe = ProbeMode::kIprobe;
        break;
      default:
        break;
    }
  }
  return sched;
}

/// One rank's half of the pairwise stress exchange. Appends the Status
/// records observed by this rank's probes, non-batch receives and waitany
/// completions to `recs` (void return so gtest ASSERTs can bail out).
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
    if (m.mode == RecvMode::kBatch || m.mode == RecvMode::kAnyBatch) {
      // Consecutive members of one batch mode become one irecv group,
      // completed by a single waitall or by a waitany loop; posting order
      // fixes the per-tag pairing.
      int end = i;
      while (end < kMessages && in[static_cast<std::size_t>(end)].mode == m.mode) {
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
      if (m.mode == RecvMode::kBatch) {
        ASSERT_EQ(comm.waitall(reqs), MpiError::kSuccess) << "rank " << rank;
      } else {
        for (int b = 0; b < batch; ++b) {
          int index = -1;
          Status st;
          ASSERT_EQ(comm.waitany(reqs, &index, &st), MpiError::kSuccess) << "rank " << rank;
          ASSERT_GE(index, 0);
          ASSERT_LT(index, batch);
          EXPECT_EQ(reqs[static_cast<std::size_t>(index)], nullptr);
          EXPECT_EQ(st.tag, in[static_cast<std::size_t>(i + index)].tag);
          recs.push_back(flatten(st, RecKind::kWaitany, index));
        }
      }
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
    // Receives land in a double buffer whatever their type: int64 and
    // MPI_BYTE unpack the sender's float64 bit patterns unchanged.
    Datatype type = Datatype::float64();
    std::size_t elems = capacity;
    bool mismatch = false;
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
        elems = capacity;
        expected = MpiError::kTruncate;
        break;
      case RecvMode::kMistyped:
        type = Datatype::int64();
        mismatch = true;
        break;
      case RecvMode::kBytes:
        type = Datatype::byte();
        elems = capacity * sizeof(double);
        break;
      default:
        break;
    }
    if (m.probe != ProbeMode::kNone) {
      // The next message on the channel is message i: its full envelope,
      // whatever the receive's capacity or type.
      Status env;
      if (m.probe == ProbeMode::kProbe) {
        ASSERT_EQ(comm.probe(source, tag, &env), MpiError::kSuccess) << "rank " << rank;
      } else {
        bool flag = false;
        while (!flag) {
          ASSERT_EQ(comm.iprobe(source, tag, &flag, &env), MpiError::kSuccess)
              << "rank " << rank;
        }
      }
      EXPECT_EQ(env.source, partner);
      EXPECT_EQ(env.tag, m.tag);
      EXPECT_EQ(env.received_bytes, static_cast<std::size_t>(m.count) * sizeof(double));
      recs.push_back(flatten(env, RecKind::kProbe));
    }
    ASSERT_EQ(comm.recv(buf.data(), elems, type, source, tag, &st), expected)
        << "rank " << rank << " recv " << i;
    EXPECT_EQ(st.source, partner);
    EXPECT_EQ(st.tag, m.tag);
    EXPECT_EQ(st.error, expected);
    EXPECT_EQ(st.received_bytes, capacity * sizeof(double));
    EXPECT_EQ(st.signature_mismatch, mismatch) << "rank " << rank << " recv " << i;
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

// Both directions' schedules of every seed the tests run use every receive
// mode and both probe kinds, so each engine operation the records compare
// is exercised.
TEST(MpisimStressTest, SchedulesExerciseEveryMode) {
  for (const std::uint64_t seed : {1ull, 42ull}) {
    std::set<RecvMode> modes;
    std::set<ProbeMode> probes;
    for (const int role : {0, 1}) {
      for (const MsgSpec& m : make_schedule(seed, role)) {
        modes.insert(m.mode);
        if (m.mode != RecvMode::kBatch && m.mode != RecvMode::kAnyBatch) {
          probes.insert(m.probe);
        }
      }
    }
    EXPECT_EQ(modes.size(), 8u) << "seed " << seed;
    EXPECT_EQ(probes.size(), 3u) << "seed " << seed;
  }
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
    std::set<RecKind> kinds;
    int mismatches = 0;
    for (const auto& rank_recs : at2) {
      for (const Rec& rec : rank_recs) {
        kinds.insert(rec.kind);
        mismatches += rec.signature_mismatch;
      }
    }
    EXPECT_EQ(kinds.size(), 3u) << "seed " << seed;
    EXPECT_GT(mismatches, 0) << "seed " << seed;
  }
}

// The proc backend must be observationally equivalent to the thread backend:
// the same seeds at 2, 8 and 32 ranks yield identical per-rank record
// sequences (probe envelopes, receive Statuses with source, tag, byte count,
// error and signature mismatch, waitany indices) and the same
// per-(src,dst,tag) FIFO order, which run_pair_traffic asserts on the
// payload inside every rank.
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

// -- Pinned decisions steer real matching ------------------------------------
//
// The two schedule decisions the matching engine makes, driven through mpisim
// on both backends: a wildcard receive choosing among two queued messages
// (match_recv) and a waitany choosing among two completed requests (waitany).
// Pinning candidate 1 through Controller::configure_prefix must steer both
// backends to the same answer and record the same decision node; unpinned,
// both take candidate 0. Rank 0 reports what it saw through publish_result,
// so forked ranks report the same way as threads.

using schedsim::Site;
using schedsim::TraceEntry;

constexpr int kTagData = 5;
constexpr int kTagToken = 6;

/// Three ranks: rank 1 sends A to rank 0, then a token to rank 2; rank 2
/// sends B to rank 0 once the token arrived and rank 0 has seen A (its probe
/// queues A first on either backend, so A is the older candidate). After a
/// barrier rank 0 receives from ANY_SOURCE. Returns the matched source on
/// rank 0, -1 elsewhere.
int wildcard_program(Comm& comm) {
  const double token = 0.0;
  double got = -1.0;
  if (comm.rank() == 1) {
    const double a = 1.0;
    EXPECT_EQ(comm.send(&a, 1, Datatype::float64(), 0, kTagData), MpiError::kSuccess);
    EXPECT_EQ(comm.send(&token, 1, Datatype::float64(), 2, kTagToken), MpiError::kSuccess);
  } else if (comm.rank() == 2) {
    const double b = 2.0;
    EXPECT_EQ(comm.recv(&got, 1, Datatype::float64(), 1, kTagToken), MpiError::kSuccess);
    EXPECT_EQ(comm.recv(&got, 1, Datatype::float64(), 0, kTagToken), MpiError::kSuccess);
    EXPECT_EQ(comm.send(&b, 1, Datatype::float64(), 0, kTagData), MpiError::kSuccess);
  } else {
    Status envelope;
    EXPECT_EQ(comm.probe(1, kTagData, &envelope), MpiError::kSuccess);
    EXPECT_EQ(comm.send(&token, 1, Datatype::float64(), 2, kTagToken), MpiError::kSuccess);
  }
  EXPECT_EQ(comm.barrier(), MpiError::kSuccess);
  if (comm.rank() != 0) {
    return -1;
  }
  Status st;
  EXPECT_EQ(comm.recv(&got, 1, Datatype::float64(), kAnySource, kTagData, &st),
            MpiError::kSuccess);
  EXPECT_EQ(got, static_cast<double>(st.source));  // A carries 1.0, B 2.0
  const int other = st.source == 1 ? 2 : 1;
  EXPECT_EQ(comm.recv(&got, 1, Datatype::float64(), other, kTagData), MpiError::kSuccess);
  return st.source;
}

/// Three ranks: rank 0 posts an irecv from rank 1 and one from rank 2, both
/// send, and after a barrier both requests are complete when rank 0 calls
/// waitany. Returns waitany's index on rank 0, -1 elsewhere.
int waitany_program(Comm& comm) {
  std::array<double, 2> got{-1.0, -1.0};
  std::array<Request*, 2> reqs{nullptr, nullptr};
  if (comm.rank() == 0) {
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(comm.irecv(&got[static_cast<std::size_t>(i)], 1, Datatype::float64(), i + 1,
                           kTagData, &reqs[static_cast<std::size_t>(i)]),
                MpiError::kSuccess);
    }
  } else {
    const double value = comm.rank();
    EXPECT_EQ(comm.send(&value, 1, Datatype::float64(), 0, kTagData), MpiError::kSuccess);
  }
  EXPECT_EQ(comm.barrier(), MpiError::kSuccess);
  if (comm.rank() != 0) {
    return -1;
  }
  int index = -1;
  Status st;
  EXPECT_EQ(comm.waitany(reqs, &index, &st), MpiError::kSuccess);
  EXPECT_EQ(st.source, index + 1);
  EXPECT_EQ(comm.wait(&reqs[static_cast<std::size_t>(1 - index)]), MpiError::kSuccess);
  EXPECT_EQ(got[0], 1.0);
  EXPECT_EQ(got[1], 2.0);
  return index;
}

/// What rank 0 of a steered run observed.
struct Steered {
  int answer{-1};
  std::vector<TraceEntry> decisions;  ///< rank 0's recorded decisions
};

/// Runs `program` at three ranks on `backend` with the controller
/// recording, pinning rank 0's first `site` decision to `pin` (-1: unpinned).
Steered run_steered(Backend backend, Site site, int pin, int (*program)(Comm&)) {
  schedsim::Controller& controller = schedsim::Controller::instance();
  std::vector<TraceEntry> prefix;
  if (pin >= 0) {
    prefix.push_back(TraceEntry{0, 0, site, 2, pin});
  }
  controller.configure_prefix(prefix);
  World world(3, backend);
  world.set_watchdog_timeout(std::chrono::milliseconds(10000));
  world.run([&](Comm comm) {
    const int answer = program(comm);
    if (comm.rank() != 0) {
      return;
    }
    // [failed-flag][answer][TraceEntry...]: TraceEntry is trivially
    // copyable and parent and child are the same binary.
    std::vector<TraceEntry> mine;
    for (const TraceEntry& e : controller.log().decisions) {
      if (e.rank == 0) {
        mine.push_back(e);
      }
    }
    const std::int32_t head[2] = {::testing::Test::HasFailure() ? 1 : 0, answer};
    std::vector<std::byte> blob(sizeof head + mine.size() * sizeof(TraceEntry));
    std::memcpy(blob.data(), head, sizeof head);
    std::memcpy(blob.data() + sizeof head, mine.data(), mine.size() * sizeof(TraceEntry));
    mpisim::publish_result(comm, blob);
  });
  controller.clear();

  Steered out;
  const std::vector<std::byte>& blob = world.rank_result(0);
  std::int32_t head[2] = {0, -1};
  if (blob.size() < sizeof head || (blob.size() - sizeof head) % sizeof(TraceEntry) != 0) {
    ADD_FAILURE() << "rank 0 published no well-formed result";
    return out;
  }
  std::memcpy(head, blob.data(), sizeof head);
  EXPECT_EQ(head[0], 0) << "rank 0 recorded a child-side assertion failure";
  out.answer = head[1];
  out.decisions.resize((blob.size() - sizeof head) / sizeof(TraceEntry));
  std::memcpy(out.decisions.data(), blob.data() + sizeof head, blob.size() - sizeof head);
  return out;
}

/// Both backends, unpinned and pinned to candidate 1: each run makes exactly
/// one decision (rank 0, `site`, 2 candidates), answers `answers[chosen]`,
/// and the two backends agree.
void expect_steered(Site site, int (*program)(Comm&), const std::array<int, 2>& answers) {
  for (const int pin : {-1, 1}) {
    const int chosen = pin < 0 ? 0 : pin;
    std::array<Steered, 2> runs;
    for (const Backend backend : {Backend::kThread, Backend::kProc}) {
      SCOPED_TRACE(std::string(mpisim::to_string(backend)) + (pin < 0 ? " unpinned" : " pinned"));
      Steered& run = runs[backend == Backend::kProc ? 1 : 0];
      run = run_steered(backend, site, pin, program);
      EXPECT_EQ(run.answer, answers[static_cast<std::size_t>(chosen)]);
      ASSERT_EQ(run.decisions.size(), 1u);
      const TraceEntry& d = run.decisions[0];
      EXPECT_EQ(d.rank, 0);
      EXPECT_EQ(d.seq, 0u);
      EXPECT_EQ(d.site, site);
      EXPECT_EQ(d.candidates, 2);
      EXPECT_EQ(d.chosen, chosen);
    }
    EXPECT_EQ(runs[0].answer, runs[1].answer);
  }
}

TEST(MpisimSteeringTest, PinnedMatchRecvSteersBothBackends) {
  // Candidate 0 is the oldest message (A, from rank 1); candidate 1 is B.
  expect_steered(Site::kMatchRecv, wildcard_program, {1, 2});
}

TEST(MpisimSteeringTest, PinnedWaitanySteersBothBackends) {
  // Candidate 0 is the lowest completed index; candidate 1 the other one.
  expect_steered(Site::kWaitany, waitany_program, {0, 1});
}

}  // namespace
