// Unit tests for the MPI simulator: datatypes (incl. derived types and
// pack/unpack), point-to-point matching semantics, requests and collectives.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "mpisim/datatype.hpp"
#include "mpisim/request.hpp"
#include "mpisim/world.hpp"

namespace {

using mpisim::Comm;
using mpisim::Datatype;
using mpisim::kAnySource;
using mpisim::kAnyTag;
using mpisim::MpiError;
using mpisim::ReduceOp;
using mpisim::Request;
using mpisim::Status;
using mpisim::World;

// -- Datatype unit tests -------------------------------------------------------

TEST(DatatypeTest, BuiltinSizes) {
  EXPECT_EQ(Datatype::byte().extent(), 1u);
  EXPECT_EQ(Datatype::int32().extent(), 4u);
  EXPECT_EQ(Datatype::int64().extent(), 8u);
  EXPECT_EQ(Datatype::float32().extent(), 4u);
  EXPECT_EQ(Datatype::float64().extent(), 8u);
  EXPECT_TRUE(Datatype::float64().is_contiguous());
  EXPECT_EQ(Datatype::float64().name(), "MPI_DOUBLE");
}

TEST(DatatypeTest, BuiltinsAreSingletons) {
  EXPECT_TRUE(Datatype::int32() == Datatype::int32());
  EXPECT_FALSE(Datatype::int32() == Datatype::uint32());
}

TEST(DatatypeTest, ContiguousDerivedType) {
  const auto t = Datatype::contiguous(Datatype::float64(), 5);
  EXPECT_EQ(t.extent(), 40u);
  EXPECT_EQ(t.packed_size(), 40u);
  EXPECT_TRUE(t.is_contiguous());
  EXPECT_EQ(t.layout().size(), 5u);
}

TEST(DatatypeTest, VectorTypeHasHoles) {
  // 3 blocks of 2 doubles, stride 4 doubles.
  const auto t = Datatype::vector(Datatype::float64(), 3, 2, 4);
  EXPECT_EQ(t.extent(), ((3 - 1) * 4 + 2) * 8u);  // 80
  EXPECT_EQ(t.packed_size(), 3 * 2 * 8u);         // 48
  EXPECT_FALSE(t.is_contiguous());
  EXPECT_EQ(t.layout().size(), 6u);
  EXPECT_EQ(t.layout()[2].offset, 32u);  // second block starts at stride
}

TEST(DatatypeTest, PackUnpackVectorRoundTrip) {
  const auto t = Datatype::vector(Datatype::float64(), 2, 2, 3);
  // extent = ((2-1)*3+2)*8 = 40 bytes = 5 doubles per element.
  std::array<double, 10> src{};
  std::iota(src.begin(), src.end(), 1.0);
  std::array<double, 8> packed{};
  t.pack(src.data(), 2, packed.data());
  // Element 0 picks doubles {0,1, 3,4}; element 1 starts at offset 5.
  EXPECT_EQ(packed[0], 1.0);
  EXPECT_EQ(packed[1], 2.0);
  EXPECT_EQ(packed[2], 4.0);
  EXPECT_EQ(packed[3], 5.0);
  EXPECT_EQ(packed[4], 6.0);
  EXPECT_EQ(packed[5], 7.0);
  EXPECT_EQ(packed[6], 9.0);
  EXPECT_EQ(packed[7], 10.0);

  std::array<double, 10> dst{};
  t.unpack(packed.data(), 2, dst.data());
  EXPECT_EQ(dst[0], 1.0);
  EXPECT_EQ(dst[1], 2.0);
  EXPECT_EQ(dst[2], 0.0);  // hole untouched
  EXPECT_EQ(dst[3], 4.0);
  EXPECT_EQ(dst[4], 5.0);
  EXPECT_EQ(dst[8], 9.0);
}

TEST(DatatypeTest, IndexedType) {
  // Blocks: 2 doubles at displacement 0, 1 double at displacement 4.
  const std::size_t lens[] = {2, 1};
  const std::size_t disps[] = {0, 4};
  const auto t = Datatype::indexed(Datatype::float64(), lens, disps);
  EXPECT_EQ(t.extent(), 5 * 8u);
  EXPECT_EQ(t.packed_size(), 3 * 8u);
  EXPECT_FALSE(t.is_contiguous());
  ASSERT_EQ(t.layout().size(), 3u);
  EXPECT_EQ(t.layout()[0].offset, 0u);
  EXPECT_EQ(t.layout()[1].offset, 8u);
  EXPECT_EQ(t.layout()[2].offset, 32u);
}

TEST(DatatypeTest, IndexedPackUnpackRoundTrip) {
  const std::size_t lens[] = {1, 2};
  const std::size_t disps[] = {1, 3};
  const auto t = Datatype::indexed(Datatype::int32(), lens, disps);
  std::array<int, 5> src{10, 11, 12, 13, 14};
  std::array<int, 3> packed{};
  t.pack(src.data(), 1, packed.data());
  EXPECT_EQ(packed, (std::array<int, 3>{11, 13, 14}));
  std::array<int, 5> dst{};
  t.unpack(packed.data(), 1, dst.data());
  EXPECT_EQ(dst, (std::array<int, 5>{0, 11, 0, 13, 14}));
}

TEST(DatatypeTest, IndexedTypeTransfers) {
  World world(2);
  world.run([](Comm comm) {
    const std::size_t lens[] = {1, 1};
    const std::size_t disps[] = {0, 2};
    const auto corners = Datatype::indexed(Datatype::float64(), lens, disps);
    if (comm.rank() == 0) {
      std::array<double, 3> grid{1.0, 2.0, 3.0};
      ASSERT_EQ(comm.send(grid.data(), 1, corners, 1, 0), MpiError::kSuccess);
    } else {
      std::array<double, 3> grid{-1.0, -1.0, -1.0};
      ASSERT_EQ(comm.recv(grid.data(), 1, corners, 0, 0), MpiError::kSuccess);
      EXPECT_EQ(grid[0], 1.0);
      EXPECT_EQ(grid[1], -1.0);  // hole untouched
      EXPECT_EQ(grid[2], 3.0);
    }
  });
}

TEST(DatatypeTest, SignatureConcatenation) {
  std::vector<mpisim::Scalar> sig;
  Datatype::contiguous(Datatype::int32(), 2).signature(3, sig);
  EXPECT_EQ(sig.size(), 6u);
  for (const auto s : sig) {
    EXPECT_EQ(s, mpisim::Scalar::kInt32);
  }
}

TEST(DatatypeTest, ReduceOps) {
  std::array<double, 3> in{1.0, 5.0, -2.0};
  std::array<double, 3> inout{2.0, 3.0, -7.0};
  ASSERT_TRUE(apply_reduce(ReduceOp::kSum, Datatype::float64(), 3, in.data(), inout.data()));
  EXPECT_EQ(inout[0], 3.0);
  EXPECT_EQ(inout[1], 8.0);
  EXPECT_EQ(inout[2], -9.0);

  std::array<int, 2> imin_in{4, -1};
  std::array<int, 2> imin_io{2, 5};
  ASSERT_TRUE(apply_reduce(ReduceOp::kMin, Datatype::int32(), 2, imin_in.data(), imin_io.data()));
  EXPECT_EQ(imin_io[0], 2);
  EXPECT_EQ(imin_io[1], -1);

  ASSERT_TRUE(apply_reduce(ReduceOp::kMax, Datatype::int32(), 2, imin_in.data(), imin_io.data()));
  EXPECT_EQ(imin_io[0], 4);

  // Product.
  std::array<double, 2> p_in{2.0, 3.0};
  std::array<double, 2> p_io{4.0, 0.5};
  ASSERT_TRUE(apply_reduce(ReduceOp::kProd, Datatype::float64(), 2, p_in.data(), p_io.data()));
  EXPECT_EQ(p_io[0], 8.0);
  EXPECT_EQ(p_io[1], 1.5);

  // Reductions on byte types are rejected.
  std::array<char, 2> c{};
  EXPECT_FALSE(apply_reduce(ReduceOp::kSum, Datatype::byte(), 2, c.data(), c.data()));
  // Reductions on derived types are rejected.
  std::array<double, 4> d{};
  EXPECT_FALSE(apply_reduce(ReduceOp::kSum, Datatype::contiguous(Datatype::float64(), 2), 2,
                            d.data(), d.data()));
}

// -- Point-to-point ---------------------------------------------------------------

TEST(MpisimP2PTest, BlockingSendRecvMovesData) {
  World world(2);
  world.run([](Comm comm) {
    std::array<int, 4> buf{};
    if (comm.rank() == 0) {
      buf = {1, 2, 3, 4};
      ASSERT_EQ(comm.send(buf.data(), 4, Datatype::int32(), 1, 7), MpiError::kSuccess);
    } else {
      Status status;
      ASSERT_EQ(comm.recv(buf.data(), 4, Datatype::int32(), 0, 7, &status), MpiError::kSuccess);
      EXPECT_EQ(buf, (std::array<int, 4>{1, 2, 3, 4}));
      EXPECT_EQ(status.source, 0);
      EXPECT_EQ(status.tag, 7);
      EXPECT_EQ(status.received_bytes, 16u);
    }
  });
}

TEST(MpisimP2PTest, TagMatching) {
  World world(2);
  world.run([](Comm comm) {
    if (comm.rank() == 0) {
      int a = 10;
      int b = 20;
      ASSERT_EQ(comm.send(&a, 1, Datatype::int32(), 1, /*tag=*/1), MpiError::kSuccess);
      ASSERT_EQ(comm.send(&b, 1, Datatype::int32(), 1, /*tag=*/2), MpiError::kSuccess);
    } else {
      int x = 0;
      // Receive tag 2 first even though tag 1 arrived first.
      ASSERT_EQ(comm.recv(&x, 1, Datatype::int32(), 0, 2), MpiError::kSuccess);
      EXPECT_EQ(x, 20);
      ASSERT_EQ(comm.recv(&x, 1, Datatype::int32(), 0, 1), MpiError::kSuccess);
      EXPECT_EQ(x, 10);
    }
  });
}

TEST(MpisimP2PTest, FifoOrderPerChannel) {
  World world(2);
  world.run([](Comm comm) {
    constexpr int kN = 50;
    if (comm.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        ASSERT_EQ(comm.send(&i, 1, Datatype::int32(), 1, 0), MpiError::kSuccess);
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        ASSERT_EQ(comm.recv(&v, 1, Datatype::int32(), 0, 0), MpiError::kSuccess);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(MpisimP2PTest, WildcardSourceAndTag) {
  World world(3);
  world.run([](Comm comm) {
    if (comm.rank() != 0) {
      const int v = comm.rank() * 100;
      ASSERT_EQ(comm.send(&v, 1, Datatype::int32(), 0, comm.rank()), MpiError::kSuccess);
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        Status status;
        ASSERT_EQ(comm.recv(&v, 1, Datatype::int32(), kAnySource, kAnyTag, &status),
                  MpiError::kSuccess);
        EXPECT_EQ(status.tag, status.source);  // we used rank as tag
        sum += v;
      }
      EXPECT_EQ(sum, 300);
    }
  });
}

TEST(MpisimP2PTest, NonBlockingIsendIrecvWait) {
  World world(2);
  world.run([](Comm comm) {
    std::array<double, 8> buf{};
    if (comm.rank() == 0) {
      buf.fill(3.5);
      Request* req = nullptr;
      ASSERT_EQ(comm.isend(buf.data(), 8, Datatype::float64(), 1, 0, &req), MpiError::kSuccess);
      ASSERT_NE(req, nullptr);
      EXPECT_EQ(req->kind(), Request::Kind::kSend);
      ASSERT_EQ(comm.wait(&req), MpiError::kSuccess);
      EXPECT_EQ(req, nullptr);  // handle nulled like MPI_REQUEST_NULL
    } else {
      Request* req = nullptr;
      ASSERT_EQ(comm.irecv(buf.data(), 8, Datatype::float64(), 0, 0, &req), MpiError::kSuccess);
      Status status;
      ASSERT_EQ(comm.wait(&req, &status), MpiError::kSuccess);
      EXPECT_EQ(req, nullptr);
      EXPECT_EQ(status.received_bytes, 64u);
      for (const double v : buf) {
        EXPECT_EQ(v, 3.5);
      }
    }
  });
}

TEST(MpisimP2PTest, TestPollsUntilComplete) {
  World world(2);
  world.run([](Comm comm) {
    if (comm.rank() == 0) {
      comm.barrier();  // make sure the receiver posted first
      const int v = 9;
      ASSERT_EQ(comm.send(&v, 1, Datatype::int32(), 1, 0), MpiError::kSuccess);
    } else {
      int v = 0;
      Request* req = nullptr;
      ASSERT_EQ(comm.irecv(&v, 1, Datatype::int32(), 0, 0, &req), MpiError::kSuccess);
      bool done = false;
      ASSERT_EQ(comm.test(&req, &done), MpiError::kSuccess);
      EXPECT_FALSE(done);  // nothing sent yet
      comm.barrier();
      while (!done) {
        ASSERT_EQ(comm.test(&req, &done), MpiError::kSuccess);
      }
      EXPECT_EQ(req, nullptr);
      EXPECT_EQ(v, 9);
    }
  });
}

TEST(MpisimP2PTest, TruncationReported) {
  World world(2);
  world.run([](Comm comm) {
    if (comm.rank() == 0) {
      std::array<int, 8> big{};
      ASSERT_EQ(comm.send(big.data(), 8, Datatype::int32(), 1, 0), MpiError::kSuccess);
    } else {
      std::array<int, 4> small{};
      Status status;
      EXPECT_EQ(comm.recv(small.data(), 4, Datatype::int32(), 0, 0, &status),
                MpiError::kTruncate);
      EXPECT_EQ(status.received_bytes, 16u);  // only what fits
    }
  });
}

TEST(MpisimP2PTest, SendrecvExchangesWithoutDeadlock) {
  World world(2);
  world.run([](Comm comm) {
    const int peer = 1 - comm.rank();
    const int mine = comm.rank() + 1;
    int theirs = 0;
    ASSERT_EQ(comm.sendrecv(&mine, 1, Datatype::int32(), peer, 0, &theirs, 1, Datatype::int32(),
                            peer, 0),
              MpiError::kSuccess);
    EXPECT_EQ(theirs, peer + 1);
  });
}

TEST(MpisimP2PTest, WaitallCompletesAllRequests) {
  World world(2);
  world.run([](Comm comm) {
    const int peer = 1 - comm.rank();
    std::array<int, 4> out{comm.rank(), comm.rank(), comm.rank(), comm.rank()};
    std::array<int, 4> in{};
    std::array<Request*, 2> reqs{};
    ASSERT_EQ(comm.irecv(in.data(), 4, Datatype::int32(), peer, 0, &reqs[0]), MpiError::kSuccess);
    ASSERT_EQ(comm.isend(out.data(), 4, Datatype::int32(), peer, 0, &reqs[1]), MpiError::kSuccess);
    ASSERT_EQ(comm.waitall(reqs), MpiError::kSuccess);
    EXPECT_EQ(reqs[0], nullptr);
    EXPECT_EQ(reqs[1], nullptr);
    for (const int v : in) {
      EXPECT_EQ(v, peer);
    }
  });
}

TEST(MpisimP2PTest, InvalidArguments) {
  World world(1);
  world.run([](Comm comm) {
    int v = 0;
    EXPECT_EQ(comm.send(&v, 1, Datatype::int32(), 5, 0), MpiError::kInvalidRank);
    EXPECT_EQ(comm.send(nullptr, 1, Datatype::int32(), 0, 0), MpiError::kInvalidArg);
    EXPECT_EQ(comm.send(&v, 1, Datatype(), 0, 0), MpiError::kInvalidArg);  // null datatype
    Request* req = nullptr;
    EXPECT_EQ(comm.wait(&req), MpiError::kRequestNull);
    EXPECT_EQ(comm.irecv(&v, 1, Datatype::int32(), 7, 0, &req), MpiError::kInvalidRank);
  });
}

TEST(MpisimP2PTest, VectorTypeTransfersOnlyBlocks) {
  World world(2);
  world.run([](Comm comm) {
    // Column-like exchange: 4 blocks of 1 double, stride 3.
    const auto col = Datatype::vector(Datatype::float64(), 4, 1, 3);
    if (comm.rank() == 0) {
      std::array<double, 10> grid{};
      for (std::size_t i = 0; i < grid.size(); ++i) {
        grid[i] = static_cast<double>(i);
      }
      ASSERT_EQ(comm.send(grid.data(), 1, col, 1, 0), MpiError::kSuccess);
    } else {
      std::array<double, 10> grid{};
      grid.fill(-1.0);
      ASSERT_EQ(comm.recv(grid.data(), 1, col, 0, 0), MpiError::kSuccess);
      EXPECT_EQ(grid[0], 0.0);
      EXPECT_EQ(grid[3], 3.0);
      EXPECT_EQ(grid[6], 6.0);
      EXPECT_EQ(grid[9], 9.0);
      EXPECT_EQ(grid[1], -1.0);  // holes untouched
      EXPECT_EQ(grid[2], -1.0);
    }
  });
}

// -- Collectives ---------------------------------------------------------------------

TEST(MpisimCollectiveTest, BarrierSynchronizesAllRanks) {
  World world(4);
  std::atomic<int> arrived{0};
  world.run([&](Comm comm) {
    ++arrived;
    ASSERT_EQ(comm.barrier(), MpiError::kSuccess);
    EXPECT_EQ(arrived.load(), 4);
  });
}

TEST(MpisimCollectiveTest, BcastFromEachRoot) {
  World world(3);
  world.run([](Comm comm) {
    for (int root = 0; root < comm.size(); ++root) {
      std::array<double, 4> buf{};
      if (comm.rank() == root) {
        buf.fill(static_cast<double>(root) + 0.5);
      }
      ASSERT_EQ(comm.bcast(buf.data(), 4, Datatype::float64(), root), MpiError::kSuccess);
      for (const double v : buf) {
        EXPECT_EQ(v, static_cast<double>(root) + 0.5);
      }
    }
  });
}

TEST(MpisimCollectiveTest, ReduceSumAtRoot) {
  World world(4);
  world.run([](Comm comm) {
    const std::array<int, 2> mine{comm.rank(), comm.rank() * 10};
    std::array<int, 2> result{};
    ASSERT_EQ(comm.reduce(mine.data(), result.data(), 2, Datatype::int32(), ReduceOp::kSum, 0),
              MpiError::kSuccess);
    if (comm.rank() == 0) {
      EXPECT_EQ(result[0], 0 + 1 + 2 + 3);
      EXPECT_EQ(result[1], 0 + 10 + 20 + 30);
    }
  });
}

TEST(MpisimCollectiveTest, AllreduceAllRanksGetResult) {
  World world(3);
  world.run([](Comm comm) {
    double mine = static_cast<double>(comm.rank() + 1);
    double result = 0.0;
    ASSERT_EQ(comm.allreduce(&mine, &result, 1, Datatype::float64(), ReduceOp::kSum),
              MpiError::kSuccess);
    EXPECT_EQ(result, 6.0);
    // Max as well.
    ASSERT_EQ(comm.allreduce(&mine, &result, 1, Datatype::float64(), ReduceOp::kMax),
              MpiError::kSuccess);
    EXPECT_EQ(result, 3.0);
  });
}

TEST(MpisimCollectiveTest, AllreduceInPlace) {
  World world(2);
  world.run([](Comm comm) {
    double value = static_cast<double>(comm.rank() + 1);
    ASSERT_EQ(comm.allreduce(&value, &value, 1, Datatype::float64(), ReduceOp::kSum),
              MpiError::kSuccess);
    EXPECT_EQ(value, 3.0);
  });
}

TEST(MpisimCollectiveTest, AllgatherOrdersByRank) {
  World world(3);
  world.run([](Comm comm) {
    const std::array<int, 2> mine{comm.rank(), comm.rank() + 100};
    std::array<int, 6> all{};
    ASSERT_EQ(comm.allgather(mine.data(), 2, Datatype::int32(), all.data()), MpiError::kSuccess);
    EXPECT_EQ(all, (std::array<int, 6>{0, 100, 1, 101, 2, 102}));
  });
}

TEST(MpisimCollectiveTest, CollectivesComposeWithP2P) {
  // A mixed pattern: pairwise exchange followed by a reduction, repeated.
  World world(2);
  world.run([](Comm comm) {
    const int peer = 1 - comm.rank();
    double acc = 0.0;
    for (int i = 0; i < 10; ++i) {
      double mine = static_cast<double>(comm.rank() + i);
      double theirs = 0.0;
      ASSERT_EQ(comm.sendrecv(&mine, 1, Datatype::float64(), peer, 0, &theirs, 1,
                              Datatype::float64(), peer, 0),
                MpiError::kSuccess);
      double sum = 0.0;
      const double local = mine + theirs;
      ASSERT_EQ(comm.allreduce(&local, &sum, 1, Datatype::float64(), ReduceOp::kSum),
                MpiError::kSuccess);
      acc += sum;
    }
    EXPECT_EQ(acc, 2.0 * (0 + 1 + (1 + 2) + (2 + 3) + (3 + 4) + (4 + 5) + (5 + 6) + (6 + 7) +
                          (7 + 8) + (8 + 9) + (9 + 10)));
  });
}

TEST(MpisimP2PTest, ProbeReportsEnvelopeWithoutReceiving) {
  World world(2);
  world.run([](Comm comm) {
    if (comm.rank() == 0) {
      std::array<double, 6> buf{};
      ASSERT_EQ(comm.send(buf.data(), 6, Datatype::float64(), 1, 42), MpiError::kSuccess);
    } else {
      Status status;
      ASSERT_EQ(comm.probe(0, kAnyTag, &status), MpiError::kSuccess);
      EXPECT_EQ(status.source, 0);
      EXPECT_EQ(status.tag, 42);
      EXPECT_EQ(status.received_bytes, 48u);  // message size known before recv
      // Probing again still sees the same message (it was not consumed).
      bool flag = false;
      ASSERT_EQ(comm.iprobe(0, 42, &flag, &status), MpiError::kSuccess);
      EXPECT_TRUE(flag);
      // Now size the receive from the probe (the classic pattern).
      std::vector<double> dynamic(status.received_bytes / sizeof(double));
      ASSERT_EQ(comm.recv(dynamic.data(), dynamic.size(), Datatype::float64(), 0, 42),
                MpiError::kSuccess);
      // Consumed: iprobe no longer matches.
      ASSERT_EQ(comm.iprobe(0, 42, &flag), MpiError::kSuccess);
      EXPECT_FALSE(flag);
    }
  });
}

TEST(MpisimP2PTest, IprobeIsNonBlocking) {
  World world(1);
  world.run([](Comm comm) {
    bool flag = true;
    ASSERT_EQ(comm.iprobe(kAnySource, kAnyTag, &flag), MpiError::kSuccess);
    EXPECT_FALSE(flag);  // nothing sent: must return immediately
    EXPECT_EQ(comm.iprobe(0, 0, nullptr), MpiError::kInvalidArg);
  });
}

TEST(MpisimP2PTest, WaitanyCompletesExactlyTheMatchedRequest) {
  World world(2);
  world.run([](Comm comm) {
    if (comm.rank() == 0) {
      const int first = 7;
      const int second = 9;
      comm.barrier();
      ASSERT_EQ(comm.send(&first, 1, Datatype::int32(), 1, /*tag=*/5), MpiError::kSuccess);
      comm.barrier();
      ASSERT_EQ(comm.send(&second, 1, Datatype::int32(), 1, /*tag=*/4), MpiError::kSuccess);
    } else {
      int a = 0;
      int b = 0;
      std::array<Request*, 2> reqs{};
      ASSERT_EQ(comm.irecv(&a, 1, Datatype::int32(), 0, 4, &reqs[0]), MpiError::kSuccess);
      ASSERT_EQ(comm.irecv(&b, 1, Datatype::int32(), 0, 5, &reqs[1]), MpiError::kSuccess);
      comm.barrier();  // only the tag-5 message is sent now
      int index = -1;
      Status status;
      ASSERT_EQ(comm.waitany(reqs, &index, &status), MpiError::kSuccess);
      EXPECT_EQ(index, 1);
      EXPECT_EQ(reqs[1], nullptr);  // completed request nulled
      EXPECT_NE(reqs[0], nullptr);  // the other is still pending
      EXPECT_EQ(b, 7);
      EXPECT_EQ(status.tag, 5);
      comm.barrier();  // now the tag-4 message follows
      ASSERT_EQ(comm.waitany(reqs, &index, &status), MpiError::kSuccess);
      EXPECT_EQ(index, 0);
      EXPECT_EQ(a, 9);
      // All requests done: waitany on all-null reports kRequestNull.
      EXPECT_EQ(comm.waitany(reqs, &index), MpiError::kRequestNull);
    }
  });
}

TEST(MpisimCollectiveTest, GatherCollectsAtRoot) {
  World world(3);
  world.run([](Comm comm) {
    const std::array<int, 2> mine{comm.rank() * 2, comm.rank() * 2 + 1};
    std::array<int, 6> all{};
    all.fill(-1);
    ASSERT_EQ(comm.gather(mine.data(), 2, Datatype::int32(), all.data(), 1), MpiError::kSuccess);
    if (comm.rank() == 1) {
      EXPECT_EQ(all, (std::array<int, 6>{0, 1, 2, 3, 4, 5}));
    } else {
      EXPECT_EQ(all[0], -1);  // recvbuf untouched on non-roots
    }
  });
}

TEST(MpisimCollectiveTest, ScatterDistributesFromRoot) {
  World world(3);
  world.run([](Comm comm) {
    std::array<double, 6> all{};
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < all.size(); ++i) {
        all[i] = static_cast<double>(i) + 0.5;
      }
    }
    std::array<double, 2> mine{};
    ASSERT_EQ(comm.scatter(all.data(), 2, Datatype::float64(), mine.data(), 0),
              MpiError::kSuccess);
    EXPECT_EQ(mine[0], comm.rank() * 2 + 0.5);
    EXPECT_EQ(mine[1], comm.rank() * 2 + 1.5);
  });
}

TEST(MpisimCollectiveTest, GatherScatterRoundTrip) {
  World world(4);
  world.run([](Comm comm) {
    const std::array<int, 3> mine{comm.rank(), comm.rank() + 10, comm.rank() + 20};
    std::array<int, 12> all{};
    ASSERT_EQ(comm.gather(mine.data(), 3, Datatype::int32(), all.data(), 0), MpiError::kSuccess);
    std::array<int, 3> back{};
    ASSERT_EQ(comm.scatter(all.data(), 3, Datatype::int32(), back.data(), 0),
              MpiError::kSuccess);
    EXPECT_EQ(back, mine);
  });
}

TEST(MpisimCollectiveTest, GatherInvalidRoot) {
  World world(2);
  world.run([](Comm comm) {
    int v = 0;
    std::array<int, 2> all{};
    EXPECT_EQ(comm.gather(&v, 1, Datatype::int32(), all.data(), 7), MpiError::kInvalidRank);
    EXPECT_EQ(comm.scatter(all.data(), 1, Datatype::int32(), &v, -2), MpiError::kInvalidRank);
  });
}

TEST(MpisimCommDupTest, DupIsolatesMatching) {
  World world(2);
  world.run([](Comm comm) {
    Comm dup;
    ASSERT_EQ(comm.dup(&dup), MpiError::kSuccess);
    ASSERT_TRUE(dup.valid());
    EXPECT_EQ(dup.rank(), comm.rank());
    EXPECT_EQ(dup.size(), comm.size());
    if (comm.rank() == 0) {
      const int on_parent = 1;
      const int on_dup = 2;
      // Same destination and tag on both communicators.
      ASSERT_EQ(comm.send(&on_parent, 1, Datatype::int32(), 1, 0), MpiError::kSuccess);
      ASSERT_EQ(dup.send(&on_dup, 1, Datatype::int32(), 1, 0), MpiError::kSuccess);
    } else {
      // Receiving on the dup must deliver the dup's message, not the
      // parent's, regardless of send order.
      int v = 0;
      ASSERT_EQ(dup.recv(&v, 1, Datatype::int32(), 0, 0), MpiError::kSuccess);
      EXPECT_EQ(v, 2);
      ASSERT_EQ(comm.recv(&v, 1, Datatype::int32(), 0, 0), MpiError::kSuccess);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(MpisimCommDupTest, RanksAgreeOnDupInstances) {
  World world(3);
  world.run([](Comm comm) {
    Comm first;
    Comm second;
    ASSERT_EQ(comm.dup(&first), MpiError::kSuccess);
    ASSERT_EQ(comm.dup(&second), MpiError::kSuccess);
    // Collectives on each dup work => all ranks share the same instances.
    ASSERT_EQ(first.barrier(), MpiError::kSuccess);
    double mine = 1.0;
    double sum = 0.0;
    ASSERT_EQ(second.allreduce(&mine, &sum, 1, Datatype::float64(), ReduceOp::kSum),
              MpiError::kSuccess);
    EXPECT_EQ(sum, 3.0);
    // Nested dup of a dup also works.
    Comm nested;
    ASSERT_EQ(first.dup(&nested), MpiError::kSuccess);
    ASSERT_EQ(nested.barrier(), MpiError::kSuccess);
  });
}

TEST(MpisimWorldTest, RankExceptionsPropagate) {
  World world(2);
  EXPECT_THROW(world.run([](Comm comm) {
    if (comm.rank() == 1) {
      throw std::runtime_error("rank failure");
    }
  }),
               std::runtime_error);
}

TEST(MpisimWorldTest, SingleRankWorld) {
  World world(1);
  world.run([](Comm comm) {
    EXPECT_EQ(comm.size(), 1);
    ASSERT_EQ(comm.barrier(), MpiError::kSuccess);
    double v = 4.0;
    double r = 0.0;
    ASSERT_EQ(comm.allreduce(&v, &r, 1, Datatype::float64(), ReduceOp::kSum), MpiError::kSuccess);
    EXPECT_EQ(r, 4.0);
  });
}

// -- Progress watchdog / deadlock detection ---------------------------------------
//
// Parameterized over the world size: the same deadlock scenarios must be
// diagnosed identically by the sharded engine whether two ranks or eight are
// involved (idle/extra ranks either exit immediately or block symmetrically).

class MpisimWatchdogTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(WorldSizes, MpisimWatchdogTest, ::testing::Values(2, 8),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return "ranks" + std::to_string(param_info.param);
                         });

TEST_P(MpisimWatchdogTest, UnmatchedRecvDeclaresDeadlock) {
  World world(GetParam());
  world.set_watchdog_timeout(std::chrono::milliseconds(100));
  world.run([&](Comm comm) {
    if (comm.rank() == 0) {
      // No matching send ever arrives; all other ranks exit immediately.
      double v = 0.0;
      EXPECT_EQ(comm.recv(&v, 1, Datatype::float64(), 1, 42), MpiError::kDeadlock);
      EXPECT_TRUE(comm.deadlock_detected());
      const mpisim::DeadlockReport report = comm.deadlock_report();
      ASSERT_FALSE(report.empty());
      EXPECT_EQ(report.world_size, GetParam());
      const mpisim::BlockedOp* op = report.for_rank(0);
      ASSERT_NE(op, nullptr);
      EXPECT_EQ(op->op, "MPI_Recv");
      EXPECT_EQ(op->peer, 1);
      EXPECT_EQ(op->tag, 42);
      EXPECT_FALSE(op->soft);
      // The exited rank does not appear as blocked.
      EXPECT_EQ(report.for_rank(1), nullptr);
      // The rendered report names the blocked rank and call.
      EXPECT_NE(report.to_string().find("rank 0"), std::string::npos);
      EXPECT_NE(report.to_string().find("MPI_Recv"), std::string::npos);
    }
  });
}

TEST_P(MpisimWatchdogTest, CrossedRecvsBothDiagnosed) {
  World world(GetParam());
  world.set_watchdog_timeout(std::chrono::milliseconds(100));
  world.run([&](Comm comm) {
    // Classic head-to-head on every rank pair: everyone receives first —
    // nobody ever sends.
    double v = 0.0;
    const int peer = comm.rank() ^ 1;
    EXPECT_EQ(comm.recv(&v, 1, Datatype::float64(), peer, 0), MpiError::kDeadlock);
    const mpisim::DeadlockReport report = comm.deadlock_report();
    ASSERT_EQ(report.blocked.size(), static_cast<std::size_t>(GetParam()));  // all captured
    for (int r = 0; r < GetParam(); ++r) {
      const mpisim::BlockedOp* op = report.for_rank(r);
      ASSERT_NE(op, nullptr);
      EXPECT_EQ(op->op, "MPI_Recv");
      EXPECT_EQ(op->peer, r ^ 1);
    }
  });
}

TEST_P(MpisimWatchdogTest, BarrierAgainstRecvMismatch) {
  World world(GetParam());
  world.set_watchdog_timeout(std::chrono::milliseconds(100));
  world.run([](Comm comm) {
    if (comm.rank() != 1) {
      EXPECT_EQ(comm.barrier(), MpiError::kDeadlock);
    } else {
      double v = 0.0;
      EXPECT_EQ(comm.recv(&v, 1, Datatype::float64(), 0, 5), MpiError::kDeadlock);
    }
    const mpisim::DeadlockReport report = comm.deadlock_report();
    const mpisim::BlockedOp* r0 = report.for_rank(0);
    const mpisim::BlockedOp* r1 = report.for_rank(1);
    ASSERT_NE(r0, nullptr);
    ASSERT_NE(r1, nullptr);
    // The report names the *outermost* MPI calls, not the internal p2p the
    // barrier is built from.
    EXPECT_EQ(r0->op, "MPI_Barrier");
    EXPECT_EQ(r1->op, "MPI_Recv");
  });
}

TEST_P(MpisimWatchdogTest, WaitOnOrphanedIrecv) {
  World world(GetParam());
  world.set_watchdog_timeout(std::chrono::milliseconds(100));
  world.run([](Comm comm) {
    if (comm.rank() == 0) {
      double v = 0.0;
      Request* req = nullptr;
      ASSERT_EQ(comm.irecv(&v, 1, Datatype::float64(), 1, 3, &req), MpiError::kSuccess);
      Status status;
      EXPECT_EQ(comm.wait(&req, &status), MpiError::kDeadlock);
      EXPECT_EQ(status.error, MpiError::kDeadlock);
      // The abandoned request stays pending (MUST reports it as a leak).
      EXPECT_NE(req, nullptr);
      const mpisim::DeadlockReport report = comm.deadlock_report();
      const mpisim::BlockedOp* op = report.for_rank(0);
      ASSERT_NE(op, nullptr);
      EXPECT_EQ(op->op, "MPI_Wait");
      EXPECT_EQ(op->peer, 1);
      EXPECT_EQ(op->tag, 3);
    }
  });
}

TEST_P(MpisimWatchdogTest, WaitallOnOrphanedRequests) {
  World world(GetParam());
  world.set_watchdog_timeout(std::chrono::milliseconds(100));
  world.run([](Comm comm) {
    if (comm.rank() == 0) {
      std::array<double, 2> v{};
      std::array<Request*, 2> reqs{};
      ASSERT_EQ(comm.irecv(&v[0], 1, Datatype::float64(), 1, 0, &reqs[0]), MpiError::kSuccess);
      ASSERT_EQ(comm.irecv(&v[1], 1, Datatype::float64(), 1, 1, &reqs[1]), MpiError::kSuccess);
      EXPECT_EQ(comm.waitall(reqs), MpiError::kDeadlock);
      const mpisim::DeadlockReport report = comm.deadlock_report();
      const mpisim::BlockedOp* op = report.for_rank(0);
      ASSERT_NE(op, nullptr);
      EXPECT_EQ(op->op, "MPI_Waitall");
    }
  });
}

TEST_P(MpisimWatchdogTest, TestPollLoopCountsAsBlocked) {
  World world(GetParam());
  world.set_watchdog_timeout(std::chrono::milliseconds(100));
  world.run([](Comm comm) {
    if (comm.rank() == 0) {
      // Spinning on MPI_Test for a message that never comes cannot make
      // progress by itself: the soft-block path feeds the watchdog.
      double v = 0.0;
      Request* req = nullptr;
      ASSERT_EQ(comm.irecv(&v, 1, Datatype::float64(), 1, 9, &req), MpiError::kSuccess);
      bool completed = false;
      MpiError err = MpiError::kSuccess;
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (err == MpiError::kSuccess && std::chrono::steady_clock::now() < deadline) {
        err = comm.test(&req, &completed);
        EXPECT_FALSE(completed);
      }
      EXPECT_EQ(err, MpiError::kDeadlock);
      const mpisim::DeadlockReport report = comm.deadlock_report();
      const mpisim::BlockedOp* op = report.for_rank(0);
      ASSERT_NE(op, nullptr);
      EXPECT_TRUE(op->soft);
      EXPECT_NE(report.to_string().find("polling MPI_Test"), std::string::npos);
    }
  });
}

TEST_P(MpisimWatchdogTest, SlowRankIsNotAFalsePositive) {
  // Odd ranks compute for 4x the watchdog timeout before sending to their
  // partner: as long as a live rank is unblocked, no deadlock may be declared.
  World world(GetParam());
  world.set_watchdog_timeout(std::chrono::milliseconds(75));
  world.run([](Comm comm) {
    double v = 7.0;
    const int partner = comm.rank() ^ 1;
    if (comm.rank() % 2 == 0) {
      EXPECT_EQ(comm.recv(&v, 1, Datatype::float64(), partner, 0), MpiError::kSuccess);
      EXPECT_EQ(v, 3.0);
      EXPECT_FALSE(comm.deadlock_detected());
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      v = 3.0;
      EXPECT_EQ(comm.send(&v, 1, Datatype::float64(), partner, 0), MpiError::kSuccess);
    }
  });
}

TEST_P(MpisimWatchdogTest, PoisonedCommFailsFastAfterDeclaration) {
  World world(GetParam());
  world.set_watchdog_timeout(std::chrono::milliseconds(100));
  world.run([](Comm comm) {
    if (comm.rank() == 0) {
      double v = 0.0;
      EXPECT_EQ(comm.recv(&v, 1, Datatype::float64(), 1, 0), MpiError::kDeadlock);
      // Every further blocking call returns immediately with kDeadlock
      // instead of hanging again.
      const auto start = std::chrono::steady_clock::now();
      EXPECT_EQ(comm.recv(&v, 1, Datatype::float64(), 1, 1), MpiError::kDeadlock);
      EXPECT_EQ(comm.barrier(), MpiError::kDeadlock);
      const auto elapsed = std::chrono::steady_clock::now() - start;
      EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 100);
    }
  });
}

TEST_P(MpisimWatchdogTest, DisabledWatchdogKeepsLegacyBehaviour) {
  // Timeout 0 disables declaration: a recv matched late still completes and
  // no deadlock state is ever set.
  World world(GetParam());
  world.set_watchdog_timeout(std::chrono::milliseconds(0));
  world.run([](Comm comm) {
    double v = 0.0;
    const int partner = comm.rank() ^ 1;
    if (comm.rank() % 2 == 0) {
      EXPECT_EQ(comm.recv(&v, 1, Datatype::float64(), partner, 0), MpiError::kSuccess);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      v = 1.0;
      EXPECT_EQ(comm.send(&v, 1, Datatype::float64(), partner, 0), MpiError::kSuccess);
    }
    EXPECT_FALSE(comm.deadlock_detected());
  });
}

}  // namespace
