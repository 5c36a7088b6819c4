//===- tests/test_support.cpp - support/ unit tests ----------------------------===//

#include "support/Error.h"
#include "support/KeyValueFile.h"
#include "support/Rng.h"
#include "support/Status.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <thread>

using namespace dnnfusion;

namespace {

/// Per-process temp path so concurrent runs of this binary (e.g. parallel
/// CI jobs on one machine) cannot corrupt each other's fixtures.
std::string tempPath(const char *Name) {
  return formatString("/tmp/dnnf_%d_%s", static_cast<int>(getpid()), Name);
}

TEST(StringUtils, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatString("empty"), "empty");
  EXPECT_EQ(formatString("%05d", 7), "00007");
}

TEST(StringUtils, SplitKeepsEmptyPieces) {
  EXPECT_EQ(splitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(splitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(splitString("xyz", ','), (std::vector<std::string>{"xyz"}));
}

TEST(StringUtils, JoinInvertsSplit) {
  std::vector<std::string> Pieces = {"a", "b", "c"};
  EXPECT_EQ(splitString(joinStrings(Pieces, ","), ','), Pieces);
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trimString("  x y \t\n"), "x y");
  EXPECT_EQ(trimString("   "), "");
  EXPECT_EQ(trimString("a"), "a");
}

TEST(StringUtils, IntListRoundTrip) {
  std::vector<int64_t> Values = {-3, 0, 7, 1ll << 40};
  EXPECT_EQ(parseIntList(intsToString(Values)), Values);
  EXPECT_TRUE(parseIntList("[]").empty());
  EXPECT_EQ(parseIntList("1,2,3"), (std::vector<int64_t>{1, 2, 3}));
}

TEST(Rng, DeterministicForSeed) {
  Rng A(7), B(7), C(8);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), C.next());
}

TEST(Rng, FloatInUnitInterval) {
  Rng R(3);
  for (int I = 0; I < 1000; ++I) {
    float V = R.nextFloat();
    EXPECT_GE(V, 0.0f);
    EXPECT_LT(V, 1.0f);
  }
}

TEST(Rng, RangeInclusive) {
  Rng R(5);
  std::set<int64_t> Seen;
  for (int I = 0; I < 200; ++I) {
    int64_t V = R.nextInRange(2, 5);
    EXPECT_GE(V, 2);
    EXPECT_LE(V, 5);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 4u); // All four values appear.
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> Hits(100000);
  parallelFor(100000, [&](int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I < End; ++I)
      ++Hits[static_cast<size_t>(I)];
  });
  for (const auto &H : Hits)
    ASSERT_EQ(H.load(), 1);
}

TEST(ThreadPool, SmallCountsRunInline) {
  int Calls = 0;
  parallelFor(10, [&](int64_t Begin, int64_t End) {
    ++Calls;
    EXPECT_EQ(Begin, 0);
    EXPECT_EQ(End, 10);
  });
  EXPECT_EQ(Calls, 1);
}

TEST(ThreadPool, ZeroAndNegativeCountsAreNoops) {
  bool Called = false;
  parallelFor(0, [&](int64_t, int64_t) { Called = true; });
  parallelFor(-5, [&](int64_t, int64_t) { Called = true; });
  EXPECT_FALSE(Called);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("long-name"), std::string::npos);
  // Header and separator and two rows.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 4);
}

TEST(KeyValueFile, RoundTrip) {
  std::string Path = tempPath("kv_test.txt");
  std::map<std::string, std::string> In = {{"a", "1"}, {"b", "x=y? no"},
                                           {"key with space", "v"}};
  // '=' in values survives (only the first '=' splits).
  In["b"] = "x+y";
  ASSERT_TRUE(storeKeyValueFile(Path, In));
  std::map<std::string, std::string> Out;
  ASSERT_TRUE(loadKeyValueFile(Path, Out));
  EXPECT_EQ(In, Out);
  std::remove(Path.c_str());
}

TEST(KeyValueFile, MissingFileReturnsFalse) {
  std::map<std::string, std::string> Out;
  EXPECT_FALSE(loadKeyValueFile("/tmp/does_not_exist_dnnf.txt", Out));
  EXPECT_TRUE(Out.empty());
}

TEST(Timer, Monotonic) {
  WallTimer T;
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(B, A);
  EXPECT_GE(A, 0.0);
}

TEST(ErrorDeath, CheckMacroAborts) {
  EXPECT_DEATH(DNNF_CHECK(false, "boom %d", 42), "boom 42");
}

//===----------------------------------------------------------------------===//
// StringUtils: edge cases
//===----------------------------------------------------------------------===//

TEST(StringUtils, FormatStringLongerThanAnyInternalBuffer) {
  std::string Big(10000, 'x');
  std::string Out = formatString("<%s>", Big.c_str());
  EXPECT_EQ(Out.size(), Big.size() + 2);
  EXPECT_EQ(Out.front(), '<');
  EXPECT_EQ(Out.back(), '>');
  EXPECT_EQ(Out.substr(1, Big.size()), Big);
}

TEST(StringUtils, SplitOnAbsentSeparator) {
  EXPECT_EQ(splitString("abc", 'x'), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(splitString(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtils, JoinEdgeCases) {
  EXPECT_EQ(joinStrings({}, ","), "");
  EXPECT_EQ(joinStrings({"only"}, ", "), "only");
  EXPECT_EQ(joinStrings({"a", "", "c"}, "-"), "a--c");
}

TEST(StringUtils, TrimHandlesCarriageReturns) {
  EXPECT_EQ(trimString("\r\n a=b \r\n"), "a=b");
  EXPECT_EQ(trimString("no-trim"), "no-trim");
  EXPECT_EQ(trimString(""), "");
}

TEST(StringUtils, ParseIntListToleratesWhitespaceAndBrackets) {
  EXPECT_EQ(parseIntList(" [ 1 , -2 , 3 ] "),
            (std::vector<int64_t>{1, -2, 3}));
  EXPECT_EQ(parseIntList("7"), (std::vector<int64_t>{7}));
  EXPECT_TRUE(parseIntList("   ").empty());
}

TEST(StringUtilsDeath, ParseIntListRejectsMalformedInput) {
  EXPECT_DEATH(parseIntList("[1, two, 3]"), "malformed integer");
  EXPECT_DEATH(parseIntList("1,,2"), "empty element");
}

TEST(StringUtils, IntsToStringFormatsLikeSignatures) {
  EXPECT_EQ(intsToString({}), "[]");
  EXPECT_EQ(intsToString({5}), "[5]");
  EXPECT_EQ(intsToString({1, 2, 3}), "[1, 2, 3]");
}

//===----------------------------------------------------------------------===//
// ThreadPool: the class itself (the wrapper is covered above)
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ExplicitSizeIsHonored) {
  ThreadPool One(1), Four(4);
  EXPECT_EQ(One.numThreads(), 1u);
  EXPECT_EQ(Four.numThreads(), 4u);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool Pool(1);
  std::thread::id Caller = std::this_thread::get_id();
  std::thread::id Seen;
  Pool.parallelFor(1 << 20, [&](int64_t, int64_t) {
    Seen = std::this_thread::get_id();
  });
  EXPECT_EQ(Seen, Caller);
}

TEST(ThreadPool, SliceBoundariesAreDeterministic) {
  // Slice boundaries must depend only on the trip count and pool size —
  // never on scheduling — so instrumentation counters are reproducible.
  ThreadPool Pool(4);
  auto Collect = [&](int64_t Count) {
    std::mutex M;
    std::vector<std::pair<int64_t, int64_t>> Slices;
    Pool.parallelFor(Count, [&](int64_t Begin, int64_t End) {
      std::lock_guard<std::mutex> Lock(M);
      Slices.emplace_back(Begin, End);
    });
    std::sort(Slices.begin(), Slices.end());
    return Slices;
  };
  int64_t Count = 100000;
  auto A = Collect(Count), B = Collect(Count);
  EXPECT_EQ(A, B);
  // Slices tile [0, Count) exactly.
  int64_t Expected = 0;
  for (const auto &[Begin, End] : A) {
    EXPECT_EQ(Begin, Expected);
    EXPECT_LT(Begin, End);
    Expected = End;
  }
  EXPECT_EQ(Expected, Count);
  EXPECT_GT(A.size(), 1u);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool Pool(3);
  for (int Round = 0; Round < 50; ++Round) {
    std::atomic<int64_t> Sum{0};
    Pool.parallelFor(20000, [&](int64_t Begin, int64_t End) {
      int64_t Local = 0;
      for (int64_t I = Begin; I < End; ++I)
        Local += I;
      Sum += Local;
    });
    EXPECT_EQ(Sum.load(), int64_t(20000) * 19999 / 2);
  }
}

TEST(ThreadPool, GlobalPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().numThreads(), 1u);
  EXPECT_LE(ThreadPool::global().numThreads(), 8u);
}

TEST(ThreadPool, ForEachVisitsEveryIndexOnceWithValidLanes) {
  ThreadPool Pool(4);
  const int64_t Count = 64;
  std::vector<std::atomic<int>> Visits(Count);
  for (auto &V : Visits)
    V = 0;
  std::atomic<bool> LaneOutOfRange{false};
  Pool.forEach(Count, [&](int64_t I, unsigned Lane) {
    ++Visits[static_cast<size_t>(I)];
    if (Lane >= Pool.numLanes())
      LaneOutOfRange = true;
  });
  for (int64_t I = 0; I < Count; ++I)
    EXPECT_EQ(Visits[static_cast<size_t>(I)].load(), 1) << "index " << I;
  EXPECT_FALSE(LaneOutOfRange.load());
}

TEST(ThreadPool, ParallelForInsideWorkerRunsInlineWithoutDeadlock) {
  // The wavefront dispatcher runs fusion blocks as forEach tasks; the
  // fused kernels inside then call parallelFor on the same pool. That
  // nested call must execute inline on the worker — enqueueing and
  // blocking would deadlock a fully busy pool. Regression gate for the
  // reentrancy guarantee.
  ThreadPool Pool(2);
  const int64_t Outer = 2, Inner = 1 << 15; // Inner > 2 * MinPerSlice.
  std::vector<std::atomic<int64_t>> Sums(Outer);
  for (auto &S : Sums)
    S = 0;
  std::mutex RendezvousMutex;
  std::condition_variable RendezvousCv;
  int Arrived = 0;
  std::atomic<int> WorkerDispatches{0};
  Pool.forEach(Outer, [&](int64_t I, unsigned) {
    {
      // Rendezvous: both tasks must be in flight at once, so at least one
      // runs on a worker thread (the participating master can hold only
      // one) and the inline path below is deterministically exercised.
      std::unique_lock<std::mutex> Lock(RendezvousMutex);
      ++Arrived;
      RendezvousCv.notify_all();
      RendezvousCv.wait(Lock, [&] { return Arrived == Outer; });
    }
    bool OnWorker = Pool.onWorkerThread();
    std::thread::id Caller = std::this_thread::get_id();
    Pool.parallelFor(Inner, [&](int64_t Begin, int64_t End) {
      if (OnWorker) {
        // Inline on the worker: same thread, one slice covering the whole
        // range. (On the master a nested parallelFor may dispatch
        // normally, which is deadlock-free.)
        EXPECT_EQ(std::this_thread::get_id(), Caller);
        EXPECT_EQ(Begin, 0);
        EXPECT_EQ(End, Inner);
      }
      int64_t Local = 0;
      for (int64_t J = Begin; J < End; ++J)
        Local += J;
      Sums[static_cast<size_t>(I)] += Local;
    });
    if (OnWorker)
      ++WorkerDispatches;
  });
  EXPECT_GE(WorkerDispatches.load(), 1);
  for (int64_t I = 0; I < Outer; ++I)
    EXPECT_EQ(Sums[static_cast<size_t>(I)].load(), Inner * (Inner - 1) / 2);
}

TEST(ThreadPool, ForEachInsideWorkerRunsInline) {
  ThreadPool Pool(2);
  std::atomic<int> Total{0};
  Pool.forEach(4, [&](int64_t, unsigned OuterLane) {
    // Only a pool worker runs its nested forEach inline. The master thread
    // helps with outer tasks on lane 0, and from there a nested forEach
    // dispatches normally (deadlock-free), so its inner lanes may differ.
    bool OnWorker = Pool.onWorkerThread();
    Pool.forEach(4, [&](int64_t, unsigned InnerLane) {
      if (OnWorker) {
        EXPECT_EQ(InnerLane, OuterLane);
      }
      ++Total;
    });
  });
  EXPECT_EQ(Total.load(), 16);
}

TEST(ThreadPool, LaneIdentification) {
  ThreadPool Pool(3);
  EXPECT_FALSE(Pool.onWorkerThread());
  EXPECT_EQ(Pool.currentLane(), 0u);
  EXPECT_EQ(Pool.numLanes(), 4u);
  // Worker lanes are 1..numThreads; lanes of another pool do not leak.
  ThreadPool Other(2);
  std::mutex M;
  std::vector<unsigned> WorkerLanes;
  Pool.forEach(16, [&](int64_t, unsigned Lane) {
    if (Pool.onWorkerThread()) {
      EXPECT_FALSE(Other.onWorkerThread());
      EXPECT_EQ(Other.currentLane(), 0u);
      EXPECT_GE(Lane, 1u);
      EXPECT_LE(Lane, Pool.numThreads());
      std::lock_guard<std::mutex> Lock(M);
      WorkerLanes.push_back(Lane);
    } else {
      EXPECT_EQ(Lane, 0u);
    }
  });
}

TEST(ThreadPool, ConcurrentMastersEachCompleteTheirOwnGroup) {
  // Several independent threads sharing one pool (the InferenceSession
  // pattern): every parallelFor/forEach call must wait on exactly its own
  // task group and observe its own full iteration space.
  ThreadPool Pool(4);
  const int Masters = 4;
  std::vector<std::thread> Threads;
  std::vector<int64_t> Results(Masters, 0);
  for (int T = 0; T < Masters; ++T)
    Threads.emplace_back([&, T] {
      for (int Round = 0; Round < 20; ++Round) {
        std::atomic<int64_t> Sum{0};
        const int64_t Count = 10000 + T * 1000;
        Pool.parallelFor(Count, [&](int64_t Begin, int64_t End) {
          int64_t Local = 0;
          for (int64_t I = Begin; I < End; ++I)
            Local += I;
          Sum += Local;
        });
        Results[static_cast<size_t>(T)] = Sum.load();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < Masters; ++T) {
    int64_t Count = 10000 + T * 1000;
    EXPECT_EQ(Results[static_cast<size_t>(T)], Count * (Count - 1) / 2);
  }
}

//===----------------------------------------------------------------------===//
// TablePrinter: exact rendering
//===----------------------------------------------------------------------===//

TEST(TablePrinter, ExactRendering) {
  TablePrinter T({"op", "ms"});
  T.addRow({"Conv", "1.5"});
  T.addRow({"Add", "10.25"});
  // Columns pad to the widest cell plus two spaces; the separator spans the
  // full width; the last column is not padded.
  EXPECT_EQ(T.render(), "op    ms\n"
                        "-----------\n"
                        "Conv  1.5\n"
                        "Add   10.25\n");
}

TEST(TablePrinter, HeaderOnlyTable) {
  TablePrinter T({"a", "bb"});
  EXPECT_EQ(T.render(), "a  bb\n-----\n");
}

TEST(TablePrinter, SingleColumnHasNoPadding) {
  TablePrinter T({"col"});
  T.addRow({"a-very-long-cell"});
  EXPECT_EQ(T.render(), "col\n----------------\na-very-long-cell\n");
}

TEST(TablePrinterDeath, MismatchedRowArityAborts) {
  TablePrinter T({"a", "b"});
  EXPECT_DEATH(T.addRow({"only-one"}), "row arity");
}

//===----------------------------------------------------------------------===//
// KeyValueFile: formats and failure modes
//===----------------------------------------------------------------------===//

TEST(KeyValueFile, SkipsCommentsAndBlankLines) {
  std::string Path = tempPath("kv_comments.txt");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("# a comment\n\nkey=value\n   \n# another\nk2=v2\n", F);
  std::fclose(F);
  std::map<std::string, std::string> Out;
  ASSERT_TRUE(loadKeyValueFile(Path, Out));
  EXPECT_EQ(Out, (std::map<std::string, std::string>{{"key", "value"},
                                                     {"k2", "v2"}}));
  std::remove(Path.c_str());
}

TEST(KeyValueFile, OnlyFirstEqualsSplits) {
  std::string Path = tempPath("kv_equals.txt");
  std::map<std::string, std::string> In = {{"expr", "a=b=c"}};
  ASSERT_TRUE(storeKeyValueFile(Path, In));
  std::map<std::string, std::string> Out;
  ASSERT_TRUE(loadKeyValueFile(Path, Out));
  EXPECT_EQ(Out["expr"], "a=b=c");
  std::remove(Path.c_str());
}

TEST(KeyValueFile, StoreWritesSortedKeys) {
  std::string Path = tempPath("kv_sorted.txt");
  ASSERT_TRUE(storeKeyValueFile(Path, {{"zeta", "1"}, {"alpha", "2"}}));
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  char Buffer[256] = {0};
  size_t Got = std::fread(Buffer, 1, sizeof(Buffer) - 1, F);
  std::fclose(F);
  EXPECT_EQ(std::string(Buffer, Got), "alpha=2\nzeta=1\n");
  std::remove(Path.c_str());
}

TEST(KeyValueFile, StoreOverwritesExistingFile) {
  std::string Path = tempPath("kv_overwrite.txt");
  ASSERT_TRUE(storeKeyValueFile(Path, {{"old", "1"}, {"stale", "2"}}));
  ASSERT_TRUE(storeKeyValueFile(Path, {{"fresh", "3"}}));
  std::map<std::string, std::string> Out;
  ASSERT_TRUE(loadKeyValueFile(Path, Out));
  EXPECT_EQ(Out, (std::map<std::string, std::string>{{"fresh", "3"}}));
  std::remove(Path.c_str());
}

TEST(KeyValueFile, StoreToUnwritablePathReturnsFalse) {
  EXPECT_FALSE(
      storeKeyValueFile("/nonexistent-dir/dnnf.txt", {{"a", "1"}}));
}

TEST(KeyValueFileDeath, MalformedLineAborts) {
  std::string Path = tempPath("kv_malformed.txt");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("no-equals-sign-here\n", F);
  std::fclose(F);
  std::map<std::string, std::string> Out;
  EXPECT_DEATH(loadKeyValueFile(Path, Out), "malformed line");
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Status / Expected: the recoverable error model
//===----------------------------------------------------------------------===//

TEST(Status, DefaultIsOk) {
  Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Ok);
  EXPECT_TRUE(S.message().empty());
  EXPECT_EQ(S.toString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status S = Status::error(ErrorCode::InvalidGraph, "bad wiring");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::InvalidGraph);
  EXPECT_EQ(S.message(), "bad wiring");
  EXPECT_EQ(S.toString(), "invalid_graph: bad wiring");
}

TEST(Status, ErrorfFormats) {
  Status S = Status::errorf(ErrorCode::NotFound, "input '%s' (%d of %d)",
                            "image", 1, 3);
  EXPECT_EQ(S.message(), "input 'image' (1 of 3)");
}

TEST(Status, EveryErrorCodeHasAName) {
  for (ErrorCode C :
       {ErrorCode::Ok, ErrorCode::InvalidArgument, ErrorCode::InvalidGraph,
        ErrorCode::NotFound, ErrorCode::FailedPrecondition,
        ErrorCode::DataLoss, ErrorCode::Internal})
    EXPECT_STRNE(errorCodeName(C), "?");
}

TEST(Expected, HoldsValue) {
  Expected<int> E = 42;
  ASSERT_TRUE(E.ok());
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.value(), 42);
  EXPECT_EQ(*E, 42);
  EXPECT_TRUE(E.status().ok());
}

TEST(Expected, HoldsError) {
  Expected<int> E = Status::error(ErrorCode::InvalidArgument, "nope");
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.status().code(), ErrorCode::InvalidArgument);
  EXPECT_EQ(E.status().message(), "nope");
}

TEST(Expected, TakeValueMovesOut) {
  Expected<std::vector<int>> E = std::vector<int>{1, 2, 3};
  std::vector<int> V = E.takeValue();
  EXPECT_EQ(V, (std::vector<int>{1, 2, 3}));
}

TEST(Expected, ArrowOperatorReachesMembers) {
  Expected<std::string> E = std::string("abc");
  EXPECT_EQ(E->size(), 3u);
}

TEST(Expected, CantFailUnwraps) {
  EXPECT_EQ(cantFail(Expected<int>(7)), 7);
}

TEST(ExpectedDeath, ValueOnErrorAborts) {
  Expected<int> E = Status::error(ErrorCode::Internal, "boom");
  EXPECT_DEATH(E.value(), "boom");
}

TEST(ExpectedDeath, CantFailOnErrorAborts) {
  EXPECT_DEATH(cantFail(Expected<int>(
                   Status::error(ErrorCode::Internal, "kaboom"))),
               "kaboom");
}

TEST(ExpectedDeath, ErrorExpectedFromOkStatusAborts) {
  Status Ok;
  EXPECT_DEATH(Expected<int>{Ok}, "without a value");
}

TEST(ScopedFatalErrorTrap, ConvertsFatalErrorsToExceptionsInScope) {
  EXPECT_FALSE(ScopedFatalErrorTrap::active());
  bool Caught = false;
  try {
    ScopedFatalErrorTrap Trap;
    EXPECT_TRUE(ScopedFatalErrorTrap::active());
    DNNF_CHECK(false, "trapped %d", 7);
  } catch (const detail::TrappedFatalError &E) {
    Caught = true;
    EXPECT_NE(E.Message.find("trapped 7"), std::string::npos) << E.Message;
  }
  EXPECT_TRUE(Caught);
  EXPECT_FALSE(ScopedFatalErrorTrap::active());
}

TEST(ScopedFatalErrorTrapDeath, OutsideScopeStillAborts) {
  {
    ScopedFatalErrorTrap Trap;
  }
  EXPECT_DEATH(reportFatalError("still fatal"), "still fatal");
}

} // namespace
