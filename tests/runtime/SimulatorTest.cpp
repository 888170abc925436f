//===- tests/runtime/SimulatorTest.cpp - Runtime simulator tests ----------===//

#include "runtime/Simulator.h"

#include "runtime/OnlineProfiler.h"

#include <gtest/gtest.h>

using namespace paco;

namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator Sim(CostModel::defaults());
  EXPECT_TRUE(Sim.elapsed().isZero());
  EXPECT_EQ(Sim.counters().ClientInstrs, 0u);
  EXPECT_EQ(Sim.counters().Migrations, 0u);
}

TEST(SimulatorTest, InstructionAccounting) {
  CostModel Costs = CostModel::defaults();
  Simulator Sim(Costs);
  Sim.execInstructions(false, 100);
  Sim.execInstructions(true, 50);
  EXPECT_EQ(Sim.counters().ClientInstrs, 100u);
  EXPECT_EQ(Sim.counters().ServerInstrs, 50u);
  EXPECT_EQ(Sim.elapsed(), Costs.Tc * Rational(100) + Costs.Ts * Rational(50));
}

TEST(SimulatorTest, TransferCostsStartupPlusBytes) {
  CostModel Costs = CostModel::defaults();
  Simulator Sim(Costs);
  Sim.transfer(true, 256);
  EXPECT_EQ(Sim.elapsed(), Costs.Tcsh + Costs.Tcsu * Rational(256));
  EXPECT_EQ(Sim.counters().BytesToServer, 256u);
  Sim.transfer(false, 64);
  EXPECT_EQ(Sim.counters().BytesToClient, 64u);
  EXPECT_EQ(Sim.counters().TransferCount, 2u);
}

TEST(SimulatorTest, SchedulingAndRegistration) {
  CostModel Costs = CostModel::defaults();
  Simulator Sim(Costs);
  Sim.schedule(true);
  Sim.schedule(false);
  Sim.registration();
  EXPECT_EQ(Sim.counters().Migrations, 2u);
  EXPECT_EQ(Sim.counters().Registrations, 1u);
  EXPECT_EQ(Sim.elapsed(), Costs.Tcst + Costs.Tsct + Costs.Ta);
}

TEST(SimulatorTest, ClientActiveExcludesServerCompute) {
  CostModel Costs = CostModel::defaults();
  Simulator Sim(Costs);
  Sim.execInstructions(false, 10);
  Sim.execInstructions(true, 10);
  Sim.transfer(true, 100);
  Rational ServerTime = Costs.Ts * Rational(10);
  EXPECT_EQ(Sim.clientActive(), Sim.elapsed() - ServerTime);
}

TEST(SimulatorTest, EnergyModelSplitsActiveAndIdle) {
  CostModel Costs;
  Costs.Tc = Rational(1);
  Costs.Ts = Rational(1);
  Simulator Sim(Costs);
  Sim.execInstructions(false, 1000); // 1000 units active
  Sim.execInstructions(true, 500);   // 500 units idle (waiting)
  EnergyModel Model;
  Model.ActiveAmps = 0.3;
  Model.IdleAmps = 0.1;
  Model.Volts = 5.0;
  Model.UnitSeconds = 1e-3;
  double Expected = 5.0 * (0.3 * 1.0 + 0.1 * 0.5);
  EXPECT_NEAR(Sim.energyJoules(Model), Expected, 1e-12);
}

TEST(SimulatorTest, AllClientRunDrawsOnlyActiveCurrent) {
  Simulator Sim(CostModel::defaults());
  Sim.execInstructions(false, 12345);
  EnergyModel Model;
  double Expected = Model.Volts * Model.ActiveAmps *
                    Sim.elapsed().toDouble() * Model.UnitSeconds;
  EXPECT_NEAR(Sim.energyJoules(Model), Expected, Expected * 1e-12);
}

TEST(SimulatorTest, PaperExampleCostsAreFree) {
  // The worked-example cost model zeroes scheduling and registration.
  Simulator Sim(CostModel::paperExample());
  Sim.schedule(true);
  Sim.registration();
  EXPECT_TRUE(Sim.elapsed().isZero());
  Sim.transfer(true, 4); // one 4-byte element: startup 6 + 1
  EXPECT_EQ(Sim.elapsed(), Rational(7));
}

//===----------------------------------------------------------------------===//
// Environment-drift schedules
//===----------------------------------------------------------------------===//

DriftSchedule oneRamp(int64_t At, int64_t Comm) {
  DriftSchedule Drift;
  DriftPhase P;
  P.At = Rational(At);
  P.CommScale = Rational(Comm);
  Drift.Phases.push_back(P);
  return Drift;
}

TEST(SimulatorDriftTest, CommScaleAppliesFromPhaseStart) {
  CostModel Costs = CostModel::defaults();
  Simulator Sim(Costs, FaultSpec(), RetryPolicy(), oneRamp(10000, 4));
  Rational Base = Costs.Tcsh + Costs.Tcsu * Rational(256);
  Sim.transfer(true, 256); // before the ramp: static price
  EXPECT_EQ(Sim.elapsed(), Base);
  Sim.execInstructions(false, 20000); // pushes the clock past the ramp
  Sim.transfer(true, 256); // after: 4x
  EXPECT_EQ(Sim.elapsed(), Base + Rational(20000) + Base * Rational(4));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
}

TEST(SimulatorDriftTest, ServerLoadSpikeSlowsServerCompute) {
  CostModel Costs = CostModel::defaults();
  DriftSchedule Drift;
  DriftPhase P;
  P.ServerScale = Rational(2); // from t=0: server twice as slow
  Drift.Phases.push_back(P);
  Simulator Sim(Costs, FaultSpec(), RetryPolicy(), Drift);
  Sim.execInstructions(true, 100);
  EXPECT_EQ(Sim.serverCompute(), Costs.Ts * Rational(100) * Rational(2));
  Sim.execInstructions(false, 100); // client rate is untouched
  EXPECT_EQ(Sim.clientCompute(), Costs.Tc * Rational(100));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
}

TEST(SimulatorDriftTest, TimedOutageRecoversViaBackoff) {
  // The link is down from t=0 and recovers at t=30; the retry loop's
  // timeout and backoff waits advance the clock across the recovery
  // point, so the fourth attempt delivers.
  CostModel Costs = CostModel::defaults();
  Costs.Tto = Rational(5);
  RetryPolicy Retry; // base 4 doubling to cap 64
  DriftSchedule Drift;
  DriftPhase DownP, UpP;
  DownP.Down = true;
  UpP.At = Rational(30);
  Drift.Phases.push_back(DownP);
  Drift.Phases.push_back(UpP);
  Simulator Sim(Costs, FaultSpec(), Retry, Drift);
  EXPECT_TRUE(Sim.trySchedule(true));
  // t=0 down (+5, +4), t=9 down (+5, +8), t=22 down (+5, +16), t=43 up.
  EXPECT_EQ(Sim.counters().Timeouts, 3u);
  EXPECT_EQ(Sim.counters().Retries, 3u);
  EXPECT_EQ(Sim.counters().FaultTime, Rational(3 * 5 + 4 + 8 + 16));
  EXPECT_EQ(Sim.counters().Migrations, 1u);
  EXPECT_EQ(Sim.elapsed(), Sim.counters().FaultTime + Costs.Tcst);
  EXPECT_EQ(Sim.now(), Sim.elapsed());
}

TEST(SimulatorDriftTest, SameScheduleSameCosts) {
  FaultSpec Spec;
  Spec.Seed = 21;
  Spec.DropRate = 0.3;
  Spec.JitterUnits = 5;
  DriftSchedule Drift = oneRamp(5000, 8);
  Simulator A(CostModel::defaults(), Spec, RetryPolicy(), Drift);
  Simulator B(CostModel::defaults(), Spec, RetryPolicy(), Drift);
  for (int I = 0; I != 40; ++I) {
    A.trySchedule(I & 1);
    B.trySchedule(I & 1);
    A.tryTransfer(I & 1, 96);
    B.tryTransfer(I & 1, 96);
    A.execInstructions(I & 1, 500);
    B.execInstructions(I & 1, 500);
  }
  EXPECT_EQ(A.elapsed(), B.elapsed());
  EXPECT_EQ(A.link().traceString(), B.link().traceString());
  EXPECT_EQ(A.now(), A.elapsed());
  EXPECT_EQ(B.now(), B.elapsed());
}

//===----------------------------------------------------------------------===//
// Clock instants: crash, restart and drift-phase starts reached inside a
// multi-unit instruction chunk, exactly at a chunk's end, and through a
// message charge. Each crossing must show after the same call that made
// it, and now() must equal elapsed() after every step.
//===----------------------------------------------------------------------===//

/// Round constants so the instants below land where the comments say:
/// client 1 unit per instruction, server 1/2, scheduling 8, transfers 6
/// per message plus 1 per byte, timeout 5.
CostModel clockCosts() {
  CostModel C = CostModel::defaults();
  C.Tc = Rational(1);
  C.Ts = Rational::fraction(1, 2);
  C.Tcst = Rational(8);
  C.Tsct = Rational(8);
  C.Tcsh = Rational(6);
  C.Tsch = Rational(6);
  C.Tcsu = Rational(1);
  C.Tscu = Rational(1);
  C.Tto = Rational(5);
  return C;
}

CrashSchedule crashWindow(int64_t At, int64_t RestartAt) {
  CrashSchedule Crash;
  ServerCrash E;
  E.At = Rational(At);
  E.Restarts = true;
  E.RestartAt = Rational(RestartAt);
  Crash.Events.push_back(E);
  return Crash;
}

/// Consumes the pending server events; returns "crash@T", "restart@T",
/// both joined by '+', or "" when none is pending.
std::string takeEvents(Simulator &Sim) {
  bool Crashed = false, Restarted = false;
  Rational CrashedAt, RestartedAt;
  Sim.takeServerEvents(Crashed, CrashedAt, Restarted, RestartedAt);
  std::string Out;
  if (Crashed)
    Out = "crash@" + CrashedAt.toString();
  if (Restarted)
    Out += (Out.empty() ? "" : "+") + ("restart@" + RestartedAt.toString());
  return Out;
}

TEST(SimulatorClockTest, CrashAndRestartInsideAChunk) {
  Simulator Sim(clockCosts(), FaultSpec(), RetryPolicy(), DriftSchedule(),
                crashWindow(100, 250));
  Sim.execInstructions(false, 60); // t = 60
  EXPECT_FALSE(Sim.serverEventPending());
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  Sim.execInstructions(false, 60); // t = 120: crossed 100 mid-chunk
  EXPECT_TRUE(Sim.serverEventPending());
  EXPECT_TRUE(Sim.serverDown());
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  EXPECT_EQ(takeEvents(Sim), "crash@100");
  Sim.execInstructions(true, 258); // t = 249, on the server's rate
  EXPECT_FALSE(Sim.serverEventPending());
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  Sim.execInstructions(true, 4); // t = 251: crossed 250 mid-chunk
  EXPECT_TRUE(Sim.serverEventPending());
  EXPECT_FALSE(Sim.serverDown());
  EXPECT_EQ(takeEvents(Sim), "restart@250");
  EXPECT_EQ(Sim.now(), Rational(251));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  EXPECT_EQ(Sim.counters().Crashes, 1u);
  EXPECT_EQ(Sim.counters().Restarts, 1u);
}

TEST(SimulatorClockTest, CrashAndRestartExactlyAtAChunkEnd) {
  Simulator Sim(clockCosts(), FaultSpec(), RetryPolicy(), DriftSchedule(),
                crashWindow(100, 200));
  Sim.execInstructions(false, 40);
  Sim.execInstructions(false, 59); // t = 99: one unit short
  EXPECT_FALSE(Sim.serverEventPending());
  Sim.execInstructions(false, 1); // t = 100: the instant itself
  EXPECT_TRUE(Sim.serverEventPending());
  EXPECT_EQ(takeEvents(Sim), "crash@100");
  Sim.execInstructions(true, 199); // t = 199.5
  EXPECT_FALSE(Sim.serverEventPending());
  EXPECT_EQ(Sim.now(), Rational::fraction(399, 2));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  Sim.execInstructions(true, 1); // t = 200
  EXPECT_TRUE(Sim.serverEventPending());
  EXPECT_EQ(takeEvents(Sim), "restart@200");
  EXPECT_EQ(Sim.now(), Sim.elapsed());
}

TEST(SimulatorClockTest, CrashAndRestartThroughMessageCharges) {
  CostModel Costs = clockCosts();
  Simulator Sim(Costs, FaultSpec(), RetryPolicy(), DriftSchedule(),
                crashWindow(100, 120));
  Sim.execInstructions(false, 95);
  EXPECT_FALSE(Sim.serverEventPending());
  EXPECT_TRUE(Sim.trySchedule(true)); // delivered at 95, charged to 103
  EXPECT_TRUE(Sim.serverEventPending());
  EXPECT_EQ(Sim.now(), Rational(103));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  EXPECT_EQ(takeEvents(Sim), "crash@100");
  // Down until 120: attempts at 103 (+5, +4) and 112 (+5, +8) are lost,
  // the backoff wait that ends at 125 crosses the restart, and the
  // third attempt delivers 16 bytes at 6 + 16.
  EXPECT_TRUE(Sim.tryTransfer(true, 16));
  EXPECT_TRUE(Sim.serverEventPending());
  EXPECT_EQ(Sim.counters().Timeouts, 2u);
  EXPECT_EQ(Sim.now(), Rational(103 + 5 + 4 + 5 + 8 + 6 + 16));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  EXPECT_EQ(takeEvents(Sim), "restart@120");
  EXPECT_FALSE(Sim.serverDown());
}

TEST(SimulatorClockTest, WholeCrashWindowInsideOneChunk) {
  Simulator Sim(clockCosts(), FaultSpec(), RetryPolicy(), DriftSchedule(),
                crashWindow(10, 20));
  Sim.execInstructions(false, 5);
  EXPECT_FALSE(Sim.serverEventPending());
  Sim.execInstructions(false, 100); // crosses both instants
  EXPECT_EQ(takeEvents(Sim), "crash@10+restart@20");
  EXPECT_FALSE(Sim.serverDown());
  EXPECT_EQ(Sim.now(), Sim.elapsed());
}

DriftSchedule spikeAt(int64_t At, int64_t Scale) {
  DriftSchedule Drift;
  DriftPhase P;
  P.At = Rational(At);
  P.ServerScale = Rational(Scale);
  P.CommScale = Rational(2);
  Drift.Phases.push_back(P);
  return Drift;
}

TEST(SimulatorClockTest, PhaseStartInsideAServerChunkChargesTheOldPhase) {
  CostModel Costs = clockCosts();
  Simulator Sim(Costs, FaultSpec(), RetryPolicy(), spikeAt(100, 3));
  Sim.execInstructions(true, 120); // t = 60
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  Sim.execInstructions(true, 120); // t = 120: starts before 100, so the
                                   // whole chunk runs at the old rate
  EXPECT_EQ(Sim.serverCompute(), Rational(120));
  EXPECT_EQ(Sim.now(), Rational(120));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  Sim.execInstructions(true, 10); // spiked: 10 * 1/2 * 3
  EXPECT_EQ(Sim.serverCompute(), Rational(135));
  EXPECT_EQ(Sim.serverCompute(),
            Costs.Ts * Rational(250) + Costs.Ts * Rational(10) * Rational(2));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  Sim.schedule(false); // comm scale 2
  EXPECT_EQ(Sim.now(), Rational(135 + 16));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
}

TEST(SimulatorClockTest, PhaseStartExactlyAtAChunkEnd) {
  Simulator Sim(clockCosts(), FaultSpec(), RetryPolicy(), spikeAt(100, 3));
  Sim.execInstructions(false, 40);
  Sim.execInstructions(true, 120); // t = 100 exactly
  EXPECT_EQ(Sim.serverCompute(), Rational(60));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  Sim.execInstructions(true, 4); // the new phase from its first unit
  EXPECT_EQ(Sim.serverCompute(), Rational(66));
  EXPECT_EQ(Sim.now(), Rational(106));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  Sim.execInstructions(false, 4); // the client rate never spikes
  EXPECT_EQ(Sim.clientCompute(), Rational(44));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
}

TEST(SimulatorClockTest, PhaseStartReachedThroughAMessageCharge) {
  Simulator Sim(clockCosts(), FaultSpec(), RetryPolicy(), spikeAt(100, 3));
  Sim.execInstructions(false, 95);
  EXPECT_TRUE(Sim.trySchedule(true)); // old comm rate: 95 + 8 = 103
  EXPECT_EQ(Sim.now(), Rational(103));
  Sim.execInstructions(true, 2); // spiked: 2 * 1/2 * 3
  EXPECT_EQ(Sim.serverCompute(), Rational(3));
  EXPECT_EQ(Sim.now(), Rational(106));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
  EXPECT_TRUE(Sim.tryTransfer(false, 0)); // new comm rate: 2 * 6
  EXPECT_EQ(Sim.now(), Rational(118));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
}

TEST(SimulatorClockTest, PhaseStartCrossedOnTheClientSpikesTheNextServerChunk) {
  Simulator Sim(clockCosts(), FaultSpec(), RetryPolicy(), spikeAt(100, 3));
  Sim.execInstructions(true, 20);   // t = 10
  Sim.execInstructions(false, 150); // t = 160, past the phase start
  Sim.execInstructions(true, 20);   // spiked: 20 * 1/2 * 3
  EXPECT_EQ(Sim.serverCompute(), Rational(10 + 30));
  EXPECT_EQ(Sim.now(), Rational(190));
  EXPECT_EQ(Sim.now(), Sim.elapsed());
}

//===----------------------------------------------------------------------===//
// Online profiler
//===----------------------------------------------------------------------===//

TEST(OnlineProfilerTest, ScalesConvergeOnObservedRatio) {
  CostModel Base = CostModel::defaults();
  OnlineProfiler Prof(Base, Rational::fraction(1, 2));
  Rational BaseCost = Base.Tcsh + Base.Tcsu * Rational(64);
  for (int I = 0; I != 20; ++I)
    Prof.observeMessage(MessageRecord::Kind::Transfer, true, 64,
                        BaseCost * Rational(4));
  EXPECT_EQ(Prof.samples(), 20u);
  EXPECT_GT(Prof.commToServerScale().toDouble(), 3.9);
  EXPECT_LE(Prof.commToServerScale().toDouble(), 4.0);
  EXPECT_EQ(Prof.commToClientScale(), Rational(1));
  CostModel Scaled = Prof.model();
  EXPECT_EQ(Scaled.Tcsh, Base.Tcsh * Prof.commToServerScale());
  EXPECT_EQ(Scaled.Tsch, Base.Tsch); // other direction untouched
}

TEST(OnlineProfilerTest, ComputeScalesTrackEachHost) {
  CostModel Base = CostModel::defaults();
  OnlineProfiler Prof(Base, Rational(1)); // no smoothing: jump straight
  // 100 server instructions took 3x the base model's prediction.
  Prof.observeCompute(true, 100, Base.Ts * Rational(100) * Rational(3));
  EXPECT_EQ(Prof.serverComputeScale(), Rational(3));
  EXPECT_EQ(Prof.clientComputeScale(), Rational(1));
  EXPECT_EQ(Prof.model().Ts, Base.Ts * Rational(3));
  EXPECT_EQ(Prof.model().Tc, Base.Tc);
}

TEST(OnlineProfilerTest, ZeroBaseCostObservationsAreSkipped) {
  CostModel Base = CostModel::paperExample(); // Tcst = 0: no information
  OnlineProfiler Prof(Base, Rational(1));
  Prof.observeMessage(MessageRecord::Kind::Schedule, true, 0, Rational(50));
  EXPECT_EQ(Prof.samples(), 0u);
  Prof.observeCompute(true, 100, Rational(7)); // Ts = 0 likewise
  EXPECT_EQ(Prof.samples(), 0u);
}

TEST(OnlineProfilerTest, EstimatesStayOnTheQuantizationGrid) {
  // An adversarial ratio whose exact EWMA would blow up the denominator;
  // after every update the estimate must still be a multiple of 2^-16.
  CostModel Base = CostModel::defaults();
  OnlineProfiler Prof(Base, Rational::fraction(1, 3));
  Rational BaseCost = Base.Tcsh + Base.Tcsu * Rational(7);
  for (int I = 0; I != 50; ++I)
    Prof.observeMessage(MessageRecord::Kind::Transfer, true, 7,
                        BaseCost * Rational::fraction(22, 7));
  Rational OnGrid = Prof.commToServerScale() * Rational(1 << 16);
  EXPECT_EQ(OnGrid, Rational(OnGrid.floor()));
}

} // namespace
