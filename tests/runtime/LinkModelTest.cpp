//===- tests/runtime/LinkModelTest.cpp - Lossy-link model tests -----------===//

#include "runtime/LinkModel.h"

#include "runtime/Simulator.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace paco;

namespace {

FaultSpec lossy(uint64_t Seed, double DropRate) {
  FaultSpec Spec;
  Spec.Seed = Seed;
  Spec.DropRate = DropRate;
  return Spec;
}

TEST(LinkModelTest, DefaultSpecIsFaultFree) {
  EXPECT_TRUE(FaultSpec().faultFree());
  EXPECT_TRUE(LinkModel().faultFree());
  FaultSpec Drop = lossy(1, 0.5);
  EXPECT_FALSE(Drop.faultFree());
  FaultSpec Jitter;
  Jitter.JitterUnits = 3;
  EXPECT_FALSE(Jitter.faultFree());
  FaultSpec Window;
  Window.DisconnectAt = 10;
  Window.DisconnectLength = 5;
  EXPECT_FALSE(Window.faultFree());
}

TEST(LinkModelTest, SameSeedSameTrace) {
  FaultSpec Spec = lossy(42, 0.3);
  Spec.JitterUnits = 7;
  LinkModel A(Spec), B(Spec);
  for (int I = 0; I != 1000; ++I) {
    LinkModel::Attempt X = A.next();
    LinkModel::Attempt Y = B.next();
    EXPECT_EQ(X.Delivered, Y.Delivered) << "attempt " << I;
    EXPECT_EQ(X.Jitter, Y.Jitter) << "attempt " << I;
  }
  EXPECT_EQ(A.traceString(), B.traceString());
  ASSERT_EQ(A.trace().size(), 1000u);
}

TEST(LinkModelTest, DifferentSeedsDifferentTrace) {
  LinkModel A(lossy(1, 0.5)), B(lossy(2, 0.5));
  for (int I = 0; I != 256; ++I) {
    A.next();
    B.next();
  }
  EXPECT_NE(A.traceString(), B.traceString());
}

TEST(LinkModelTest, DisconnectWindowSwallowsEveryAttempt) {
  FaultSpec Spec; // drop rate 0: outside the window everything arrives
  Spec.DisconnectAt = 10;
  Spec.DisconnectLength = 5;
  LinkModel Link(Spec);
  for (uint64_t I = 0; I != 30; ++I) {
    bool InWindow = I >= 10 && I < 15;
    EXPECT_EQ(Link.next().Delivered, !InWindow) << "attempt " << I;
  }
  EXPECT_EQ(Link.traceString(), "..........DDDDD...............");
}

TEST(LinkModelTest, DropRateMatchesFrequency) {
  LinkModel Link(lossy(7, 0.5));
  unsigned Dropped = 0;
  const unsigned N = 20000;
  for (unsigned I = 0; I != N; ++I)
    Dropped += !Link.next().Delivered;
  double Rate = double(Dropped) / N;
  EXPECT_GT(Rate, 0.45);
  EXPECT_LT(Rate, 0.55);
}

TEST(LinkModelTest, JitterBoundedAndDeterministic) {
  FaultSpec Spec;
  Spec.Seed = 9;
  Spec.DropRate = 0.001; // armed, but nearly everything delivered
  Spec.JitterUnits = 5;
  LinkModel A(Spec), B(Spec);
  bool SawNonZero = false;
  for (int I = 0; I != 500; ++I) {
    LinkModel::Attempt X = A.next();
    EXPECT_LE(X.Jitter, 5u);
    SawNonZero |= X.Jitter != 0;
    EXPECT_EQ(X.Jitter, B.next().Jitter);
  }
  EXPECT_TRUE(SawNonZero);
}

TEST(LinkModelTest, BackoffDoublesUpToCap) {
  RetryPolicy Policy;
  Policy.BackoffBase = Rational(4);
  Policy.BackoffCap = Rational(64);
  EXPECT_EQ(backoffDelay(Policy, 0), Rational(4));
  EXPECT_EQ(backoffDelay(Policy, 1), Rational(8));
  EXPECT_EQ(backoffDelay(Policy, 2), Rational(16));
  EXPECT_EQ(backoffDelay(Policy, 3), Rational(32));
  EXPECT_EQ(backoffDelay(Policy, 4), Rational(64));
  EXPECT_EQ(backoffDelay(Policy, 5), Rational(64));   // capped
  EXPECT_EQ(backoffDelay(Policy, 100), Rational(64)); // stays capped
}

TEST(LinkModelTest, ValidateFaultSpecFlagsBadInputs) {
  EXPECT_EQ(validateFaultSpec(FaultSpec()), "");
  EXPECT_EQ(validateFaultSpec(lossy(7, 0.5)), "");
  FaultSpec Window;
  Window.DisconnectAt = 10;
  Window.DisconnectLength = 5;
  EXPECT_EQ(validateFaultSpec(Window), "");

  EXPECT_NE(validateFaultSpec(lossy(0, -0.1)), "");
  EXPECT_NE(validateFaultSpec(lossy(0, 1.5)), "");
  EXPECT_NE(validateFaultSpec(lossy(0, std::nan(""))), "");
  FaultSpec Wrap;
  Wrap.DisconnectAt = ~0ull - 2;
  Wrap.DisconnectLength = 10;
  EXPECT_NE(validateFaultSpec(Wrap), "");
}

TEST(LinkModelTest, DriftScheduleParseRoundTrip) {
  DriftSchedule Drift;
  std::string Err;
  ASSERT_TRUE(DriftSchedule::parse(
      "at=500,comm=16;at=900,comm=1,server=3/2;at=1200,down", Drift, Err))
      << Err;
  ASSERT_EQ(Drift.Phases.size(), 3u);
  EXPECT_EQ(Drift.Phases[0].At, Rational(500));
  EXPECT_EQ(Drift.Phases[0].CommScale, Rational(16));
  EXPECT_EQ(Drift.Phases[1].ServerScale, Rational::fraction(3, 2));
  EXPECT_FALSE(Drift.Phases[1].Down);
  EXPECT_TRUE(Drift.Phases[2].Down);
  EXPECT_TRUE(Drift.active());
  EXPECT_EQ(Drift.validate(), "");
  EXPECT_FALSE(DriftSchedule().active());
}

TEST(LinkModelTest, DriftScheduleParseRejectsBadSpecs) {
  for (const char *Bad : {
           "comm=2",              // missing at=
           "at=5,comm=0",         // zero bandwidth factor
           "at=10;at=10",         // non-monotone phase starts
           "at=10,comm=16;at=5",  // going backwards
           "at=5,bogus=1",        // unknown field
           "at=5,comm=1/0",       // zero denominator
           "at=",                 // empty value
           "at=12345678901234567890", // overflows the 18-digit guard
       }) {
    DriftSchedule Drift;
    std::string Err;
    EXPECT_FALSE(DriftSchedule::parse(Bad, Drift, Err)) << Bad;
    EXPECT_NE(Err, "") << Bad;
  }
}

// UBSan regression: an absurd backoff cap used to reach the simulator's
// histogram through an out-of-range float-to-integer cast; the conversion
// now saturates instead.
TEST(LinkModelTest, SaturatingCostUnitsClampsExtremes) {
  EXPECT_EQ(saturatingCostUnits(Rational(0)), 0u);
  EXPECT_EQ(saturatingCostUnits(Rational(-5)), 0u);
  EXPECT_EQ(saturatingCostUnits(Rational::fraction(7, 2)), 3u);
  EXPECT_EQ(saturatingCostUnits(Rational(1000000)), 1000000u);

  Rational Huge(1);
  for (int I = 0; I != 12; ++I)
    Huge *= Rational(1000000000); // 10^108, far beyond 2^64
  EXPECT_EQ(saturatingCostUnits(Huge), UINT64_MAX);

  RetryPolicy Absurd;
  Absurd.BackoffBase = Huge;
  Absurd.BackoffCap = Huge * Huge;
  // The delay itself stays exact; recording it must not overflow.
  EXPECT_EQ(saturatingCostUnits(backoffDelay(Absurd, 500)), UINT64_MAX);
}

TEST(LinkModelTest, DegenerateBackoffPoliciesWaitZero) {
  RetryPolicy ZeroBase;
  ZeroBase.BackoffBase = Rational(0);
  EXPECT_EQ(backoffDelay(ZeroBase, 0), Rational(0));
  EXPECT_EQ(backoffDelay(ZeroBase, 17), Rational(0));
  RetryPolicy NegativeCap;
  NegativeCap.BackoffCap = Rational(-8);
  EXPECT_EQ(backoffDelay(NegativeCap, 3), Rational(0));
}

//===----------------------------------------------------------------------===//
// Simulator retry accounting over the lossy link
//===----------------------------------------------------------------------===//

CostModel timeoutCosts() {
  CostModel Costs = CostModel::defaults();
  Costs.Tto = Rational(5);
  return Costs;
}

RetryPolicy smallRetry() {
  RetryPolicy Retry;
  Retry.MaxRetries = 3;
  Retry.BackoffBase = Rational(4);
  Retry.BackoffCap = Rational(8);
  return Retry;
}

TEST(SimulatorFaultTest, ExhaustedRetriesChargeTimeoutsAndBackoff) {
  FaultSpec DeadLink;
  DeadLink.DisconnectAt = 0;
  DeadLink.DisconnectLength = 1000; // link is down for the whole test
  Simulator Sim(timeoutCosts(), DeadLink, smallRetry());
  EXPECT_FALSE(Sim.trySchedule(true));
  // 4 attempts time out (5 units each); backoff waits 4, 8, 8 between
  // them (base 4 doubling, capped at 8); no backoff after the last.
  EXPECT_EQ(Sim.counters().Timeouts, 4u);
  EXPECT_EQ(Sim.counters().Retries, 3u);
  EXPECT_EQ(Sim.counters().FaultTime, Rational(4 * 5 + 4 + 8 + 8));
  // The message never arrived, so no scheduling cost was charged.
  EXPECT_EQ(Sim.counters().Migrations, 0u);
  EXPECT_EQ(Sim.elapsed(), Sim.counters().FaultTime);
}

TEST(SimulatorFaultTest, TransientOutageRetriesThenDelivers) {
  FaultSpec Blip;
  Blip.DisconnectAt = 0;
  Blip.DisconnectLength = 2; // the first two attempts fail
  CostModel Costs = timeoutCosts();
  Simulator Sim(Costs, Blip, smallRetry());
  EXPECT_TRUE(Sim.trySchedule(true));
  EXPECT_EQ(Sim.counters().Timeouts, 2u);
  EXPECT_EQ(Sim.counters().Retries, 2u);
  EXPECT_EQ(Sim.counters().FaultTime, Rational(2 * 5 + 4 + 8));
  EXPECT_EQ(Sim.counters().Migrations, 1u);
  EXPECT_EQ(Sim.elapsed(), Costs.Tcst + Sim.counters().FaultTime);
}

TEST(SimulatorFaultTest, DeliveredJitterIsCharged) {
  FaultSpec Spec;
  Spec.Seed = 3;
  Spec.JitterUnits = 9;
  CostModel Costs = timeoutCosts();
  // Twin link predicts the deterministic jitter draw.
  LinkModel Twin(Spec);
  unsigned Jitter = Twin.next().Jitter;
  Simulator Sim(Costs, Spec, smallRetry());
  EXPECT_TRUE(Sim.tryTransfer(true, 64));
  EXPECT_EQ(Sim.counters().JitterUnits, Jitter);
  EXPECT_EQ(Sim.counters().FaultTime, Rational(static_cast<int64_t>(Jitter)));
  EXPECT_EQ(Sim.elapsed(),
            Costs.Tcsh + Costs.Tcsu * Rational(64) + Sim.counters().FaultTime);
}

TEST(SimulatorFaultTest, SameSeedSameCosts) {
  FaultSpec Spec = lossy(11, 0.4);
  Spec.JitterUnits = 6;
  Simulator A(timeoutCosts(), Spec, smallRetry());
  Simulator B(timeoutCosts(), Spec, smallRetry());
  for (int I = 0; I != 50; ++I) {
    A.trySchedule(I & 1);
    B.trySchedule(I & 1);
    A.tryTransfer(I & 1, 128);
    B.tryTransfer(I & 1, 128);
  }
  EXPECT_EQ(A.elapsed(), B.elapsed());
  EXPECT_EQ(A.counters().Retries, B.counters().Retries);
  EXPECT_EQ(A.counters().Timeouts, B.counters().Timeouts);
  EXPECT_EQ(A.link().traceString(), B.link().traceString());
}

TEST(SimulatorFaultTest, FaultFreeLinkBypassesTheLayer) {
  Simulator Sim(CostModel::defaults());
  EXPECT_TRUE(Sim.trySchedule(true));
  EXPECT_TRUE(Sim.tryTransfer(false, 32));
  EXPECT_TRUE(Sim.tryRegistration());
  EXPECT_EQ(Sim.counters().Timeouts, 0u);
  EXPECT_EQ(Sim.counters().Retries, 0u);
  EXPECT_TRUE(Sim.counters().FaultTime.isZero());
  EXPECT_EQ(Sim.link().attempts(), 0u); // no PRNG consumed
}

TEST(SimulatorFaultTest, DisconnectDuringRetriesIsRiddenOut) {
  // The window opens on the attempt index right after the first message:
  // the second message's initial send and first retry both land inside
  // it, and the second retry crosses the far edge and delivers.
  FaultSpec Spec;
  Spec.DisconnectAt = 1;
  Spec.DisconnectLength = 2;
  CostModel Costs = timeoutCosts();
  Simulator Sim(Costs, Spec, smallRetry());
  EXPECT_TRUE(Sim.trySchedule(true));  // attempt 0, clean
  EXPECT_TRUE(Sim.tryTransfer(true, 64)); // attempts 1, 2 eaten; 3 delivers
  EXPECT_EQ(Sim.counters().Timeouts, 2u);
  EXPECT_EQ(Sim.counters().Retries, 2u);
  EXPECT_EQ(Sim.counters().FaultTime, Rational(2 * 5 + 4 + 8));
  EXPECT_EQ(Sim.link().traceString(), ".DD.");
  EXPECT_EQ(Sim.elapsed(), Costs.Tcst + Costs.Tcsh +
                               Costs.Tcsu * Rational(64) + Sim.counters().FaultTime);

  // Bit-identical replay: the same spec reproduces the exact costs.
  Simulator Replay(Costs, Spec, smallRetry());
  EXPECT_TRUE(Replay.trySchedule(true));
  EXPECT_TRUE(Replay.tryTransfer(true, 64));
  EXPECT_EQ(Replay.elapsed(), Sim.elapsed());
  EXPECT_EQ(Replay.counters().FaultTime, Sim.counters().FaultTime);
  EXPECT_EQ(Replay.link().traceString(), Sim.link().traceString());
}

TEST(CrashScheduleTest, ParsesEventsAndRationalTimes) {
  CrashSchedule Sched;
  std::string Err;
  ASSERT_TRUE(CrashSchedule::parse("at=500,restart=900;at=2000", Sched, Err))
      << Err;
  ASSERT_EQ(Sched.Events.size(), 2u);
  EXPECT_EQ(Sched.Events[0].At, Rational(500));
  EXPECT_TRUE(Sched.Events[0].Restarts);
  EXPECT_EQ(Sched.Events[0].RestartAt, Rational(900));
  EXPECT_EQ(Sched.Events[1].At, Rational(2000));
  EXPECT_FALSE(Sched.Events[1].Restarts);
  EXPECT_TRUE(Sched.active());

  ASSERT_TRUE(CrashSchedule::parse("at=3/2,restart=7/4", Sched, Err)) << Err;
  ASSERT_EQ(Sched.Events.size(), 1u);
  EXPECT_EQ(Sched.Events[0].At, Rational::fraction(3, 2));
  EXPECT_EQ(Sched.Events[0].RestartAt, Rational::fraction(7, 4));

  EXPECT_FALSE(CrashSchedule().active());
}

TEST(CrashScheduleTest, RejectsMalformedSpecs) {
  CrashSchedule Sched;
  std::string Err;

  EXPECT_FALSE(CrashSchedule::parse("at=500,reboot=900", Sched, Err));
  EXPECT_NE(Err.find("unknown field 'reboot'"), std::string::npos);

  EXPECT_FALSE(CrashSchedule::parse("restart=900", Sched, Err));
  EXPECT_NE(Err.find("missing at=TIME"), std::string::npos);

  EXPECT_FALSE(CrashSchedule::parse("at=banana", Sched, Err));
  EXPECT_NE(Err.find("bad value 'banana'"), std::string::npos);
}

TEST(CrashScheduleTest, ValidateRejectsNonMonotonePhases) {
  CrashSchedule Sched;
  std::string Err;

  // Restart must be strictly after its crash.
  EXPECT_FALSE(CrashSchedule::parse("at=500,restart=400", Sched, Err));
  EXPECT_NE(Err.find("strictly after the crash time"), std::string::npos);
  EXPECT_FALSE(CrashSchedule::parse("at=500,restart=500", Sched, Err));

  // Nothing may follow a permanent crash.
  EXPECT_FALSE(CrashSchedule::parse("at=500;at=900", Sched, Err));
  EXPECT_NE(Err.find("unreachable after a permanent crash"),
            std::string::npos);

  // Windows must be disjoint and strictly increasing.
  EXPECT_FALSE(CrashSchedule::parse("at=500,restart=900;at=700", Sched, Err));
  EXPECT_NE(Err.find("must not overlap"), std::string::npos);
  EXPECT_FALSE(CrashSchedule::parse("at=500,restart=900;at=900", Sched, Err));

  // Negative times are caught by validate() on hand-built schedules.
  CrashSchedule Negative;
  ServerCrash E;
  E.At = Rational(-5);
  Negative.Events.push_back(E);
  EXPECT_NE(Negative.validate().find("non-negative"), std::string::npos);
}

} // namespace
