//===- interp/Interp.cpp - Partitioned-program interpreter ----------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "ir/IntArith.h"
#include "obs/Trace.h"
#include "partition/Reprice.h"

#include <algorithm>
#include <optional>
#include <set>

using namespace paco;

namespace {

/// A runtime value. Pointers are (region, element offset) pairs; func
/// values carry the function index.
struct Value {
  TypeKind K = TypeKind::Int;
  int64_t I = 0;
  double D = 0;
  unsigned Region = KNone;
  int64_t Off = 0;
  unsigned Func = KNone;

  static Value ofInt(int64_t V) {
    Value R;
    R.K = TypeKind::Int;
    R.I = V;
    return R;
  }
  static Value ofDouble(double V) {
    Value R;
    R.K = TypeKind::Double;
    R.D = V;
    return R;
  }
  static Value ofPointer(TypeKind PtrTy, unsigned Region, int64_t Off) {
    Value R;
    R.K = PtrTy;
    R.Region = Region;
    R.Off = Off;
    return R;
  }
  static Value ofFunc(unsigned F) {
    Value R;
    R.K = TypeKind::Func;
    R.Func = F;
    return R;
  }
};

/// MemRegion::Saved bits, one per host copy.
enum : uint8_t { SavedClient = 1, SavedServer = 2, SavedBoth = 3 };

/// One memory region with its two host copies and their ground-truth
/// validity. A write on one host invalidates the other copy; a transfer
/// always sources the valid copy (the static validity certificate does
/// not constrain source-side validity -- see crossTask), and a read from
/// an invalid copy is an analysis bug the interpreter reports. Two valid
/// copies always hold the same elements.
struct MemRegion {
  unsigned LocId = KNone;
  bool Live = true;
  bool ClientValid = true;
  bool ServerValid = true;
  /// Copies that may change without being saved first: the undo log
  /// already holds them, the region is newer than the checkpoint, or no
  /// checkpoint is in force.
  uint8_t Saved = SavedBoth;
  /// Counts server-side writes to this region. The recovery ledger keys
  /// pin freshness on it: a pin taken at version V is exactly the server
  /// content until the next server store. Transfers do not bump it --
  /// they only copy content the version already describes.
  uint64_t ServerVersion = 0;
  std::vector<Value> Client, Server;
};

struct Frame {
  unsigned FuncIdx = KNone;
  std::vector<unsigned> LocalRegions;
  // Return linkage: where the caller resumes, and which caller local
  // receives the return value.
  unsigned RetFunc = KNone;
  unsigned RetBlock = KNone;
  unsigned RetDstVar = KNone;
};

/// Required relative improvement of a closed-loop switch (drift
/// re-dispatch or probe-driven re-offload): the challenger's repriced
/// cost must be at most (1 - kSwitchMargin) times the incumbent's.
const Rational kSwitchMargin = Rational::fraction(1, 8);

/// Consecutive drift evaluations that must agree on the same challenger
/// before the run re-dispatches to it.
constexpr unsigned kConfirmEvals = 2;

/// FailFast means "no retries": the first lost attempt is terminal.
RetryPolicy effectiveRetry(const ExecOptions &Opts) {
  RetryPolicy Retry = Opts.Retry;
  if (Opts.OnLinkFailure == FaultPolicy::FailFast)
    Retry.MaxRetries = 0;
  return Retry;
}

class Machine {
public:
  Machine(const CompiledProgram &CP, const ExecOptions &Opts,
          const EnergyModel &Energy)
      : CP(CP), Opts(Opts), Energy(Energy),
        Sim(CP.Costs, Opts.Link, effectiveRetry(Opts), Opts.Drift,
            Opts.Crash),
        Counts(Sim.counters()),
        ClosedLoop(Opts.Adapt.Policy == AdaptationPolicy::ClosedLoop),
        EvalPeriod(std::max(1u, Opts.Adapt.EvalPeriod)),
        ProbePeriod(std::max(1u, Opts.Adapt.ProbePeriodBoundaries)),
        CrashArmed(Opts.Crash.active()), Rec(Opts.Recorder) {
    if (ClosedLoop)
      Prof.emplace(CP.Costs, Opts.Adapt.Alpha);
  }

  ExecResult run();

private:
  //===--------------------------------------------------------------===//
  // Memory
  //===--------------------------------------------------------------===//

  unsigned newRegion(unsigned LocId, size_t Elems, TypeKind ElemTy) {
    MemRegion Region;
    Region.LocId = LocId;
    Value Fill = ElemTy == TypeKind::Double ? Value::ofDouble(0.0)
                                            : Value::ofInt(0);
    Fill.K = ElemTy;
    Region.Client.assign(Elems, Fill);
    Region.Server.assign(Elems, Fill);
    Regions.push_back(std::move(Region));
    unsigned Id = static_cast<unsigned>(Regions.size() - 1);
    LiveOfLoc[LocId].push_back(Id);
    return Id;
  }

  /// Frees a region. Its copies die with it: one the undo log still
  /// needs moves there, the other is released.
  void killRegion(unsigned Id) {
    MemRegion &R = Regions[Id];
    std::vector<unsigned> &List = LiveOfLoc[R.LocId];
    for (size_t I = List.size(); I-- > 0;)
      if (List[I] == Id)
        List.erase(List.begin() + static_cast<long>(I));
    for (bool OfServer : {false, true}) {
      std::vector<Value> &Data = OfServer ? R.Server : R.Client;
      uint8_t Bit = OfServer ? SavedServer : SavedClient;
      if (!(R.Saved & Bit)) {
        pushUndo(Id, OfServer).Data = std::move(Data);
        R.Saved |= Bit;
      }
      std::vector<Value>().swap(Data);
    }
    R.Live = false;
  }

  std::vector<Value> &sideOf(unsigned Region) {
    return OnServer ? Regions[Region].Server : Regions[Region].Client;
  }

  bool loadMem(unsigned Region, int64_t Off, Value &Out) {
    if (Region == KNone || !Regions[Region].Live)
      return fail("dereference of invalid pointer");
    MemRegion &R = Regions[Region];
    if (!(OnServer ? R.ServerValid : R.ClientValid))
      return fail("read of an invalid copy of " +
                  CP.Memory->loc(R.LocId).Name + " (analysis bug)");
    std::vector<Value> &Data = sideOf(Region);
    if (Off < 0 || static_cast<size_t>(Off) >= Data.size())
      return fail("out-of-bounds access at offset " + std::to_string(Off));
    Out = Data[static_cast<size_t>(Off)];
    return true;
  }

  bool storeMem(unsigned Region, int64_t Off, const Value &V) {
    if (Region == KNone || !Regions[Region].Live)
      return fail("store through invalid pointer");
    MemRegion &R = Regions[Region];
    std::vector<Value> &Data = sideOf(Region);
    if (Off < 0 || static_cast<size_t>(Off) >= Data.size())
      return fail("out-of-bounds store at offset " + std::to_string(Off));
    if (!(R.Saved & (OnServer ? SavedServer : SavedClient)))
      saveCopy(Region, OnServer);
    Data[static_cast<size_t>(Off)] = V;
    // Writing makes this host's copy the truth.
    if (OnServer) {
      R.ServerValid = true;
      R.ClientValid = false;
      ++R.ServerVersion;
    } else {
      R.ClientValid = true;
      R.ServerValid = false;
    }
    return true;
  }

  //===--------------------------------------------------------------===//
  // Task transitions and transfers
  //===--------------------------------------------------------------===//

  /// The run self-schedules everything on the client: no cut is in
  /// force, or the run fell back to the client after a link failure or a
  /// server crash. No scheduling message, transfer or registration is
  /// sent then, exactly like running under the all-client partitioning.
  bool clientOnly() const {
    return Choice == KNone || Degraded || LocalFallback;
  }

  bool taskOnServer(unsigned Task) const {
    return !clientOnly() && CP.Partition.Choices[Choice].TaskOnServer[Task];
  }

  /// Data movements the cut in force dictates on edge (A, B)
  /// (edgeTransfers), cached per edge.
  const std::vector<ItemTransfer> &transferSet(unsigned A, unsigned B);

  bool crossTask(unsigned NewTask);

  /// Moves execution to the current task's host under the cut in force,
  /// if it runs elsewhere: one charged scheduling message from task
  /// \p FromTask. False on link failure; \p What names the message.
  bool followTask(unsigned FromTask, const char *What) {
    bool ToServer = taskOnServer(CurrentTask);
    if (ToServer == OnServer)
      return true;
    if (!recMessage(MessageRecord::Kind::Schedule, ToServer, FromTask,
                    CurrentTask, KNone, 0,
                    [&] { return Sim.trySchedule(ToServer); }))
      return linkLost(What);
    OnServer = ToServer;
    return true;
  }

  /// Sends loc \p D's live regions to the \p ToServer host as one charged
  /// transfer of their bytes, from task \p FromTask to the current task,
  /// then validates the destination copies. False on link failure; \p What
  /// names the message.
  bool sendLoc(unsigned D, bool ToServer, unsigned FromTask,
               const char *What) {
    const std::vector<unsigned> &Live = LiveOfLoc[D];
    uint64_t Bytes = 0;
    unsigned ElemBytes = elementBytes(CP.Memory->loc(D).ElemType);
    for (unsigned RegionId : Live)
      Bytes += Regions[RegionId].Client.size() * ElemBytes;
    // Drive the message through the (possibly lossy) link first; the
    // destination copies change only when the data actually arrives.
    if (!recMessage(MessageRecord::Kind::Transfer, ToServer, FromTask,
                    CurrentTask, D, Bytes,
                    [&] { return Sim.tryTransfer(ToServer, Bytes); }))
      return linkLost(What);
    // The transfer's purpose is to validate the destination copy; the
    // data always comes from the currently valid copy (the static
    // certificate may schedule a transfer whose nominal source copy is
    // stale -- nothing in the paper's constraint system forbids it -- in
    // which case the destination is already up to date and only the
    // cost is charged).
    for (unsigned RegionId : Live)
      validateCopy(RegionId, ToServer);
    return true;
  }

  /// Makes region \p Id's \p ToServer copy valid from the other one, if
  /// that one is valid (the data side of a transfer).
  void validateCopy(unsigned Id, bool ToServer);

  /// The simulator's instruction total, the one count the instruction
  /// loop updates; per-task and per-segment counts are its differences.
  uint64_t instrsSoFar() const {
    return Counts.ClientInstrs + Counts.ServerInstrs;
  }

  /// Charges the instructions executed since the previous flush to the
  /// current task. Runs before CurrentTask changes and at the end of the
  /// run.
  void flushTaskInstrs() {
    uint64_t Now = instrsSoFar();
    TaskInstrCounts[CurrentTask] += Now - TaskInstrsFlushed;
    TaskInstrsFlushed = Now;
  }

  //===--------------------------------------------------------------===//
  // Timeline recording
  //
  // Segments and messages partition the run on the simulated clock:
  // every message (scheduling, transfer, registration -- the last can
  // strike mid-segment, at a malloc) closes the open segment first, so
  // span durations sum exactly to the elapsed time. The machine tracks
  // the open segment once and hands each closed one to the recorder and,
  // in a closed-loop run, to the online profiler. All hooks are task/
  // message-grained: a segment's instruction count is the difference of
  // the simulator's total between its ends.
  //===--------------------------------------------------------------===//

  /// Closes the open segment now with \p Instrs instructions and hands it
  /// to the recorder and the profiler.
  void closeSegment(uint64_t Instrs) {
    SegOpen = false;
    Rational Now = Sim.now();
    if (Prof)
      Prof->observeCompute(SegServer, Instrs, Now - SegStart);
    if (Rec)
      Rec->segment({SegTask, SegServer, Instrs, std::move(SegStart),
                    std::move(Now)});
  }

  void recEndSegment() {
    if (SegOpen)
      closeSegment(instrsSoFar() - SegStartInstrs);
  }

  void recBeginSegment() {
    if (!Rec && !Prof)
      return;
    // A still-open segment ends with zero instructions, and the next one
    // keeps counting from its start.
    if (SegOpen)
      closeSegment(0);
    else
      SegStartInstrs = instrsSoFar();
    SegOpen = true;
    SegTask = CurrentTask;
    SegServer = OnServer;
    SegStart = Sim.now();
  }

  /// Runs \p Send (one simulator message) and records it -- to the
  /// timeline recorder and, in a closed-loop run, to the online
  /// profiler (the observed cost spans everything the message charged,
  /// fault time included). Returns the delivery status of the send.
  template <typename SendFn>
  bool recMessage(MessageRecord::Kind K, bool ToServer, unsigned FromTask,
                  unsigned ToTask, unsigned LocId, uint64_t Bytes,
                  SendFn &&Send) {
    if (!Rec && !Prof)
      return Send();
    Rational Start = Sim.now();
    uint64_t Timeouts0 = Counts.Timeouts, Retries0 = Counts.Retries;
    bool Delivered = Send();
    Rational End = Sim.now();
    if (Prof && Delivered)
      Prof->observeMessage(K, ToServer, Bytes, End - Start);
    if (Rec) {
      MessageRecord M;
      M.K = K;
      M.ToServer = ToServer;
      M.FromTask = FromTask;
      M.ToTask = ToTask;
      M.LocId = LocId;
      M.Bytes = Bytes;
      M.Timeouts = Counts.Timeouts - Timeouts0;
      M.Retries = Counts.Retries - Retries0;
      M.Delivered = Delivered;
      M.Start = std::move(Start);
      M.End = std::move(End);
      Rec->message(std::move(M));
    }
    return Delivered;
  }

  //===--------------------------------------------------------------===//
  // Fault recovery
  //
  // While the link can fault and the policy allows degrading, the
  // machine checkpoints at every task boundary (at the top of the
  // interpreter loop, where no instruction is mid-flight). A checkpoint
  // copies only the call stack and the cursors; memory is kept by an
  // undo log instead. The first store, transfer or free that changes a
  // region copy after the checkpoint saves that copy, with the region's
  // validity state, into the log, so a checkpoint costs what changed
  // since the previous one. When a message later exhausts its retries,
  // the run rolls back -- the logged copies go back, regions allocated
  // since are dropped -- and finishes on the client alone: I/O done
  // since the checkpoint is rewound with it, so outputs stay exactly
  // the all-client outputs.
  //===--------------------------------------------------------------===//

  struct Checkpoint {
    /// Regions.size() at the checkpoint; zero once a rollback consumed
    /// it, so the next checkpoint re-arms saving for every region.
    size_t RegionCount = 0;
    std::vector<Frame> Stack;
    unsigned CurrentTask = KNone;
    unsigned CurFunc = KNone;
    unsigned CurBlock = KNone;
    size_t InstrIdx = 0;
    size_t InputPos = 0;
    size_t OutputCount = 0;
  };

  /// One region copy as the checkpoint left it, with the region's state
  /// just before the change that saved it.
  struct UndoEntry {
    unsigned Id = KNone;
    bool OfServer = false; ///< Which copy Data holds.
    bool Live = false;
    bool ClientValid = false;
    bool ServerValid = false;
    uint64_t ServerVersion = 0;
    std::vector<Value> Data;
  };

  /// Appends an undo entry for region \p Id's state. Entries are reused
  /// across checkpoints, so a steady run keeps their buffers.
  UndoEntry &pushUndo(unsigned Id, bool OfServer) {
    if (UndoLen == Undo.size())
      Undo.emplace_back();
    UndoEntry &E = Undo[UndoLen++];
    const MemRegion &R = Regions[Id];
    E.Id = Id;
    E.OfServer = OfServer;
    E.Live = R.Live;
    E.ClientValid = R.ClientValid;
    E.ServerValid = R.ServerValid;
    E.ServerVersion = R.ServerVersion;
    return E;
  }

  /// Saves region \p Id's \p OfServer copy before its first change since
  /// the checkpoint.
  void saveCopy(unsigned Id, bool OfServer) {
    MemRegion &R = Regions[Id];
    const std::vector<Value> &Data = OfServer ? R.Server : R.Client;
    pushUndo(Id, OfServer).Data.assign(Data.begin(), Data.end());
    Counts.CheckpointBytes += Data.size() * sizeof(Value);
    R.Saved |= OfServer ? SavedServer : SavedClient;
  }

  void takeCheckpoint() {
    // What changed since the previous checkpoint is now the state to
    // keep: re-arm saving for the logged regions and the new ones.
    for (size_t I = 0; I != UndoLen; ++I)
      Regions[Undo[I].Id].Saved = 0;
    for (size_t Id = Ckpt.RegionCount; Id != Regions.size(); ++Id)
      Regions[Id].Saved = 0;
    UndoLen = 0;
    Ckpt.RegionCount = Regions.size();
    Ckpt.Stack = Stack;
    for (const Frame &F : Stack)
      Counts.CheckpointBytes +=
          sizeof(Frame) + F.LocalRegions.size() * sizeof(unsigned);
    Ckpt.CurrentTask = CurrentTask;
    Ckpt.CurFunc = CurFunc;
    Ckpt.CurBlock = CurBlock;
    Ckpt.InstrIdx = InstrIdx;
    Ckpt.InputPos = InputPos;
    Ckpt.OutputCount = Result.Outputs.size();
  }

  /// Pins the run to the client for good. Nothing reads the online
  /// profiler from here on (drift evaluation runs only while the run is
  /// not degraded, probing only in LocalFallback), so it is dropped, and
  /// the open segment, if any, closes unobserved.
  void degradeForGood() {
    Degraded = true;
    LocalFallback = false;
    Prof.reset();
  }

  /// Restores the last checkpoint and resumes on the client -- either as
  /// a permanent degrade (the PR-1 behavior) or, under ClosedLoop with
  /// probe budget left, as a temporary LocalFallback the recovery probes
  /// can later lift. The undo log is consumed: every rollback consumes a
  /// checkpoint taken since the previous rollback (boundary checkpoints,
  /// the redispatch checkpoint, or the pre-re-offload checkpoint
  /// maybeProbe takes), so no checkpoint is ever restored twice, and until
  /// the next one nothing is logged.
  void restoreCheckpoint() {
    recEndSegment(); // The failed message may have left no open segment.
    // Newest entry first, so a region's oldest entry -- its state at the
    // checkpoint -- sets its flags last.
    for (size_t I = UndoLen; I-- > 0;) {
      UndoEntry &E = Undo[I];
      MemRegion &Region = Regions[E.Id];
      Region.Live = E.Live;
      Region.ClientValid = E.ClientValid;
      Region.ServerValid = E.ServerValid;
      Region.ServerVersion = E.ServerVersion;
      (E.OfServer ? Region.Server : Region.Client).swap(E.Data);
    }
    UndoLen = 0;
    Regions.resize(Ckpt.RegionCount);
    // No checkpoint is in force until the next one is taken.
    for (MemRegion &Region : Regions)
      Region.Saved = SavedBoth;
    Ckpt.RegionCount = 0;
    for (std::vector<unsigned> &List : LiveOfLoc)
      List.clear();
    for (unsigned Id = 0; Id != Regions.size(); ++Id)
      if (Regions[Id].Live)
        LiveOfLoc[Regions[Id].LocId].push_back(Id);
    Stack = std::move(Ckpt.Stack);
    flushTaskInstrs();
    CurrentTask = Ckpt.CurrentTask;
    CurFunc = Ckpt.CurFunc;
    CurBlock = Ckpt.CurBlock;
    InstrIdx = Ckpt.InstrIdx;
    InputPos = Ckpt.InputPos;
    Result.Outputs.resize(Ckpt.OutputCount);
    OnServer = false;
    // The client recovers data it had shipped to the server from its
    // shadow copies (the checkpoint state retains them while the server
    // is alive); after this merge plus the ledger restores below, the
    // client copy of every live region is authoritative.
    for (MemRegion &Region : Regions)
      if (Region.Live && !Region.ClientValid && Region.ServerValid) {
        Region.Client = Region.Server;
        Region.ClientValid = true;
      }
    // After a crash the server copies are gone (onServerCrash invalidated
    // them in the checkpoint state too): items whose authoritative copy
    // died come back from the client-held recovery ledger.
    // Sync-before-checkpoint and the never-evict-needed-pins rule
    // guarantee a version-matched pin for each; a miss here is an internal
    // invariant violation.
    uint64_t Restored = 0;
    for (unsigned Id = 0; Id != Regions.size(); ++Id) {
      MemRegion &Region = Regions[Id];
      if (!Region.Live || Region.ClientValid || Region.ServerValid)
        continue;
      auto It = Ledger.find(Id);
      if (It == Ledger.end() || It->second.Version != Region.ServerVersion) {
        fail("server crash lost " + CP.Memory->loc(Region.LocId).Name +
                 " and the recovery ledger has no matching pin (ledger bug)",
             ExecResult::FailureKind::ServerCrash);
        return;
      }
      Region.Client = It->second.Data;
      Region.ClientValid = true;
      ++Restored;
    }
    Counts.LedgerRestores += Restored;
    sweepDeadPins(); // Including regions the rewind destroyed.
    // Probing keeps the fallback temporary while budget remains; without
    // it (or without the closed loop) the degrade is permanent.
    if (ClosedLoop && Counts.Probes < Opts.Adapt.ProbeBudget) {
      LocalFallback = true;
      LastFallbackTask = CurrentTask;
      FallbackBoundaries = 0;
    } else {
      degradeForGood();
    }
    ++Counts.Fallbacks;
    if (Rec) {
      RunMark &M = Rec->mark(RunMark::Kind::Fallback, Sim.now(), CurrentTask);
      M.Restored = Restored;
      M.Permanent = !LocalFallback;
    }
    recBeginSegment(); // Resume the timeline on the client.
  }

  /// Called when a message exhausted its retries. Either requests a
  /// rollback (DegradeToLocal) or fails the run with a structured
  /// LinkFailure classification.
  bool linkLost(const char *What) {
    if (Opts.OnLinkFailure == FaultPolicy::DegradeToLocal) {
      WantRollback = true;
      return false;
    }
    return fail(std::string("link failure: ") + What + " lost after " +
                    std::to_string(Counts.Timeouts) + " timed-out attempt(s)",
                ExecResult::FailureKind::LinkFailure);
  }

  /// Turns a pending rollback request into an actual restore; returns
  /// false when the failure was not a recoverable link fault.
  bool rollback() {
    if (!WantRollback)
      return false;
    // A crash may have crossed during the failed message itself (its
    // retries can outlive the server). Process it before restoring: the
    // checkpoint's server copies must be invalidated first, so the shadow
    // merge cannot "recover" data from a dead process -- only the
    // ledger can.
    if (CrashArmed && Sim.serverEventPending())
      handleServerEvents(); // A crash re-requests the same rollback.
    WantRollback = false;
    if (Failed)
      return false;
    restoreCheckpoint();
    return !Failed;
  }

  //===--------------------------------------------------------------===//
  // Server-failure recovery
  //
  // A scheduled crash kills the server process: every server-resident
  // authoritative copy is gone and the in-flight server task aborts.
  // While a crash schedule is armed, the client maintains a bounded
  // recovery ledger -- pinned copies of every data item whose only
  // valid copy lives server-side, refreshed at each task boundary
  // *before* the checkpoint and committed atomically with it, so the
  // pins are exactly as old as the snapshot they protect. Recovery
  // rolls back to the last boundary, restores the lost items from the
  // ledger, and resumes on the client with exactly-once task
  // semantics; under ClosedLoop, priced probes then test whether a
  // restarted server is worth re-offloading to.
  //===--------------------------------------------------------------===//

  /// Handles a crash event the simulated clock crossed. Returns false
  /// when the caller must roll back (WantRollback set) or the run
  /// failed; true when the crash needs no further action.
  bool onServerCrash(const Rational &At) {
    if (Rec)
      Rec->mark(RunMark::Kind::Crash, At, CurrentTask);
    // The server process died: both the live state and the checkpoint
    // state lose their server-side copies (the saved "server" halves
    // lived in the same process). A region the undo log does not hold is
    // at its checkpoint state, so clearing its flag clears both.
    for (MemRegion &Region : Regions)
      Region.ServerValid = false;
    for (size_t I = 0; I != UndoLen; ++I)
      Undo[I].ServerValid = false;
    if (clientOnly())
      return true; // Already running entirely on the client.
    if (Opts.OnLinkFailure != FaultPolicy::DegradeToLocal || !CheckpointsOn)
      return fail("server crashed at t=" + At.toString() +
                      " and the policy has no recovery path",
                  ExecResult::FailureKind::ServerCrash);
    ++Counts.CrashRecoveries;
    WantRollback = true;
    return false;
  }

  /// Takes the crash and restart events the simulated clock crossed:
  /// handles the crash, then records the restart. Returns false when the
  /// crash needs a rollback (WantRollback set) or failed the run.
  bool handleServerEvents() {
    bool Crashed = false, Restarted = false;
    Rational CrashedAt, RestartedAt;
    Sim.takeServerEvents(Crashed, CrashedAt, Restarted, RestartedAt);
    bool CrashHandled = !Crashed || onServerCrash(CrashedAt);
    if (Restarted && Rec)
      Rec->mark(RunMark::Kind::Restart, RestartedAt, CurrentTask);
    return CrashHandled;
  }

  /// One pinned client-held copy of a server-authoritative data item.
  struct LedgerPin {
    uint64_t Version = 0;  ///< MemRegion::ServerVersion at pin time.
    uint64_t Bytes = 0;    ///< Accounting size (budget + transfer price).
    uint64_t LastUsed = 0; ///< LRU stamp (LedgerSeq).
    bool Needed = false;   ///< The current checkpoint depends on it.
    std::vector<Value> Data;
  };

  /// Drops the pins of regions that died: they are dead weight.
  void sweepDeadPins() {
    for (auto It = Ledger.begin(); It != Ledger.end();) {
      if (It->first >= Regions.size() || !Regions[It->first].Live) {
        PinnedBytes -= It->second.Bytes;
        It = Ledger.erase(It);
      } else {
        ++It;
      }
    }
  }

  /// Pre-checkpoint ledger sync: makes sure every live region whose
  /// authoritative copy is server-side has a version-matched pin,
  /// charging one s2c transfer per stale or missing pin. Fetched copies
  /// land in PendingPins and commit only together with the checkpoint
  /// (commitLedger), so a failure or crash mid-sync leaves the ledger
  /// consistent with the previous checkpoint. Returns false on link
  /// failure (WantRollback set); returns true early, without touching
  /// the ledger, when a server event crossed mid-sync (the caller
  /// re-checks before checkpointing).
  bool syncLedger() {
    PendingPins.clear();
    sweepDeadPins(); // Regions that died since the last boundary.
    // Live regions in ascending id order, so ledger messages keep the
    // order of the regions' allocation.
    LiveIds.clear();
    for (const std::vector<unsigned> &List : LiveOfLoc)
      LiveIds.insert(LiveIds.end(), List.begin(), List.end());
    std::sort(LiveIds.begin(), LiveIds.end());
    bool SplitSegment = false;
    for (unsigned Id : LiveIds) {
      MemRegion &Region = Regions[Id];
      bool Needed = !Region.ClientValid && Region.ServerValid;
      auto It = Ledger.find(Id);
      if (It != Ledger.end()) {
        It->second.Needed = Needed;
        if (Needed && It->second.Version == Region.ServerVersion) {
          It->second.LastUsed = ++LedgerSeq;
          continue; // Pin still matches the server content.
        }
      }
      if (!Needed)
        continue;
      if (Sim.serverEventPending()) {
        if (SplitSegment)
          recBeginSegment();
        return true; // Crash first; no checkpoint will be taken.
      }
      uint64_t Bytes = Region.Server.size() *
                       elementBytes(CP.Memory->loc(Region.LocId).ElemType);
      // The pin rides the real (charged, lossy) link as an s2c transfer;
      // like any message it splits the open segment.
      if (!SplitSegment) {
        recEndSegment();
        SplitSegment = true;
      }
      if (!recMessage(MessageRecord::Kind::LedgerSync, false, CurrentTask,
                      CurrentTask, Region.LocId, Bytes,
                      [&] { return Sim.tryLedgerSync(Bytes); }))
        return linkLost("recovery-ledger sync");
      if (EvictedOnce.count(Id)) {
        ++Counts.LedgerRefetches;
        EvictedOnce.erase(Id);
        if (Rec) {
          RunMark &M =
              Rec->mark(RunMark::Kind::LedgerRefetch, Sim.now(), CurrentTask);
          M.Region = Id;
          M.LocId = Region.LocId;
          M.Bytes = Bytes;
        }
      }
      LedgerPin Pin;
      Pin.Version = Region.ServerVersion;
      Pin.Bytes = Bytes;
      Pin.LastUsed = ++LedgerSeq;
      Pin.Needed = true;
      Pin.Data = Region.Server;
      PendingPins.emplace_back(Id, std::move(Pin));
    }
    if (SplitSegment)
      recBeginSegment();
    return true;
  }

  /// Commits the pins syncLedger fetched, then enforces the byte budget
  /// by LRU-evicting pins the just-taken checkpoint does not depend on.
  /// Needed pins are never evicted: the budget is a soft target with a
  /// hard safety floor (a needed pin is the only recovery source for its
  /// item).
  void commitLedger() {
    for (auto &[Id, Pin] : PendingPins) {
      auto It = Ledger.find(Id);
      if (It != Ledger.end())
        PinnedBytes -= It->second.Bytes;
      PinnedBytes += Pin.Bytes;
      Ledger[Id] = std::move(Pin);
    }
    PendingPins.clear();
    while (PinnedBytes > Opts.LedgerBudgetBytes) {
      auto Victim = Ledger.end();
      for (auto It = Ledger.begin(); It != Ledger.end(); ++It)
        if (!It->second.Needed &&
            (Victim == Ledger.end() ||
             It->second.LastUsed < Victim->second.LastUsed))
          Victim = It;
      if (Victim == Ledger.end())
        break; // Everything left is load-bearing.
      PinnedBytes -= Victim->second.Bytes;
      EvictedOnce.insert(Victim->first);
      ++Counts.LedgerEvictions;
      if (Rec) {
        unsigned Id = Victim->first;
        RunMark &M =
            Rec->mark(RunMark::Kind::LedgerEvict, Sim.now(), CurrentTask);
        M.Region = Id;
        M.LocId = Id < Regions.size() ? Regions[Id].LocId : KNone;
        M.Bytes = Victim->second.Bytes;
        M.PinnedBytes = PinnedBytes;
      }
      Ledger.erase(Victim);
    }
    Counts.LedgerPeakBytes = std::max(Counts.LedgerPeakBytes, PinnedBytes);
    static obs::Histogram &Pinned = obs::StatsRegistry::global().histogram(
        "recovery.ledger_pinned_bytes");
    Pinned.record(PinnedBytes);
  }

  /// Spends the probe budget: the fallback becomes a permanent degrade.
  void exhaustProbes() {
    degradeForGood();
    ++Counts.ProbeExhaustions;
    if (Rec)
      Rec->mark(RunMark::Kind::Exhausted, Sim.now(), CurrentTask).Probes =
          Counts.Probes;
  }

  /// Runs at each task boundary of a LocalFallback run: every
  /// ProbePeriod boundaries, sends one model-priced probe. A delivered
  /// probe feeds the profiler and reprices local-vs-remote under the
  /// profiled model; when the best remote cut clears the hysteresis
  /// margin, the run checkpoints and re-dispatches to it. Returns false
  /// when a re-dispatch message was lost (caller rolls back -- into
  /// fallback again).
  bool maybeProbe() {
    ++FallbackBoundaries;
    if (FallbackBoundaries % ProbePeriod != 0)
      return true;
    if (Counts.Probes >= Opts.Adapt.ProbeBudget) {
      // Reachable when the final probe succeeded but repricing kept the
      // run local: the budget is gone, so stop paying for boundaries.
      exhaustProbes();
      return true;
    }
    recEndSegment(); // The probe splits the open segment.
    bool Up = recMessage(MessageRecord::Kind::Probe, true, CurrentTask,
                         CurrentTask, KNone, Opts.Adapt.ProbeBytes,
                         [&] { return Sim.tryProbe(Opts.Adapt.ProbeBytes); });
    if (!Up) {
      if (Counts.Probes >= Opts.Adapt.ProbeBudget)
        exhaustProbes();
      recBeginSegment();
      return true; // Still down (or still crashed); keep running local.
    }
    // The server answered and the profiler just folded the probe's
    // observed cost into its c2s scale. Run the drift detector's search
    // with the all-client incumbent: re-offload only when the best remote
    // cut beats local by the switch margin.
    Rational Stay, Go;
    unsigned Best = cheapestSwitch(KNone, Stay, Go);
    if (Best == KNone ||
        Counts.Redispatches.size() >= Opts.Adapt.MaxRedispatches) {
      recBeginSegment();
      return true; // Remote not (sufficiently) worth it yet.
    }
    // Leave the fallback and re-dispatch. A fresh checkpoint first: the
    // one the fallback rolled back to was consumed by that restore, and
    // a lost reconciliation message below must land here, not there.
    Choice = KNone; // The incumbent really is all-client now.
    LocalFallback = false;
    takeCheckpoint();
    if (!redispatch(Best, std::move(Stay), std::move(Go)))
      return false;
    ++Counts.Reoffloads;
    if (Rec)
      Rec->mark(RunMark::Kind::Reoffload, Sim.now(), CurrentTask).ToChoice =
          Best;
    return true;
  }

  //===--------------------------------------------------------------===//
  // Closed-loop adaptation
  //
  // At every task-boundary checkpoint of a ClosedLoop run, the drift
  // detector re-prices the computed cuts (plus the all-client
  // fallback) under the profiler's live cost model and, with
  // hysteresis, switches the rest of the run to the cheapest one. A
  // switch reconciles memory validity with the new choice's entry
  // assumptions through real (charged, lossy) messages, so the run
  // stays bit-identical to the all-client outputs and any failure
  // lands in the ordinary rollback-and-degrade path.
  //===--------------------------------------------------------------===//

  /// Re-prices choice \p C (KNone = all-client) at the run's parameter
  /// point under \p Model. The point is fixed for the run, so each
  /// choice's coefficients are computed once, on first use.
  Rational reprice(unsigned C, const CostModel &Model) {
    if (PriceCoeffs.empty())
      PriceCoeffs.resize(CP.Partition.Choices.size() + 1);
    std::optional<PriceCoefficients> &K =
        PriceCoeffs[C == KNone ? CP.Partition.Choices.size() : C];
    if (!K)
      K = priceCoefficients(CP.Graph, *CP.Memory, CP.Problem, CP.Partition,
                            C, FullPoint);
    return price(*K, Model);
  }

  /// The closed loop's switch search: reprices every computed cut plus
  /// the all-client run (the safe landing when the profiled point matches
  /// no region) under the profiled model, and returns the cheapest when
  /// it beats \p Incumbent (KNone = all-client) by kSwitchMargin, else
  /// \p Incumbent. \p Stay and \p Go receive the
  /// incumbent's price and the cheapest candidate's.
  unsigned cheapestSwitch(unsigned Incumbent, Rational &Stay, Rational &Go) {
    CostModel Profiled = Prof->model();
    Stay = reprice(Incumbent, Profiled);
    Go = Stay;
    unsigned Best = Incumbent;
    for (unsigned C = 0; C <= CP.Partition.Choices.size(); ++C) {
      unsigned Cand = C == CP.Partition.Choices.size() ? KNone : C;
      if (Cand == Incumbent)
        continue;
      Rational Cost = reprice(Cand, Profiled);
      if (Cost < Go) {
        Best = Cand;
        Go = std::move(Cost);
      }
    }
    static const Rational One(1);
    return Go <= Stay * (One - kSwitchMargin) ? Best : Incumbent;
  }

  /// The drift detector; runs right after a boundary checkpoint.
  /// Returns false when a reconciliation message was lost (the caller
  /// rolls back, exactly like any other link failure).
  bool maybeAdapt();

  /// Switches the run to \p NewChoice at the current boundary.
  bool redispatch(unsigned NewChoice, Rational Stay, Rational Go);

  /// Makes the \p ToServer copy of loc \p D's live regions valid,
  /// sending them (sendLoc) when any is stale; false on link failure.
  bool migrateLoc(unsigned D, bool ToServer);

  //===--------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------===//

  bool fail(const std::string &Message, ExecResult::FailureKind Kind =
                                            ExecResult::FailureKind::BadInput) {
    if (Result.Error.empty()) {
      Result.Error = Message;
      Result.Failure = Kind;
      if (CurFunc != KNone) {
        Result.Error += " [in " + CP.Module->Functions[CurFunc]->Name +
                        " bb" + std::to_string(CurBlock) + " instr " +
                        std::to_string(InstrIdx) + " task " +
                        std::to_string(CurrentTask) +
                        (OnServer ? " on server]" : " on client]");
      }
    }
    Failed = true;
    return false;
  }

  Frame &frame() { return Stack.back(); }
  const IRFunction &func() const { return *CP.Module->Functions[CurFunc]; }

  bool evalOperand(const Operand &O, Value &Out);
  bool writeLocal(unsigned Var, const Value &V) {
    return storeMem(frame().LocalRegions[Var], 0, V);
  }

  bool pushFrame(unsigned FuncIdx, unsigned RetFunc, unsigned RetBlock,
                 unsigned RetDstVar);

  /// Runs once per interpreted instruction, from run()'s loop only, so it
  /// is forced inline there: as an out-of-line call it cost the all-local
  /// interpreter about 3%, and the inliner's own choice flips with the
  /// size of the task-boundary work the loop also inlines.
  [[gnu::always_inline]] inline bool execInstr(const Instr &I);
  bool execArith(const Instr &I);
  int64_t nextInput() {
    if (InputPos >= Opts.Inputs.size())
      return 0;
    return Opts.Inputs[InputPos++];
  }

  bool enterBlock(unsigned FuncIdx, unsigned Block);

  const CompiledProgram &CP;
  const ExecOptions &Opts;
  EnergyModel Energy;
  Simulator Sim;
  RunCounters &Counts; ///< The simulator's record; recovery counts here.
  bool ClosedLoop = false;
  unsigned EvalPeriod = 1;
  std::optional<OnlineProfiler> Prof; ///< Armed iff ClosedLoop.
  std::vector<Rational> FullPoint;    ///< Parameter point (closed loop /
                                      ///< dispatch).
  /// reprice's coefficients per choice, all-client last.
  std::vector<std::optional<PriceCoefficients>> PriceCoeffs;
  ExecResult Result;

  std::vector<MemRegion> Regions;
  std::vector<std::vector<unsigned>> LiveOfLoc; ///< Live region ids per loc,
                                                ///< ascending.
  std::vector<unsigned> GlobalRegion; ///< Region per module global.
  std::vector<unsigned> RetRegion;    ///< Region per function ret loc.
  std::vector<Frame> Stack;

  unsigned Choice = KNone;
  unsigned CurrentTask = KNone;
  bool OnServer = false;
  unsigned CurFunc = KNone;
  unsigned CurBlock = KNone;
  size_t InstrIdx = 0;
  size_t InputPos = 0;
  bool Failed = false;
  bool Finished = false;

  Checkpoint Ckpt;
  std::vector<UndoEntry> Undo; ///< Entries [0, UndoLen) are in force.
  size_t UndoLen = 0;
  bool CheckpointsOn = false; ///< Checkpoint at task boundaries.
  bool Degraded = false;      ///< Link declared dead; run pinned to client.
  bool WantRollback = false;  ///< A link failure requested a rollback.

  // Server-failure recovery state.
  unsigned ProbePeriod = 1;   ///< Boundaries between recovery probes.
  bool CrashArmed = false;    ///< A crash schedule is active.
  bool LedgerOn = false;      ///< Maintain the recovery ledger.
  bool LocalFallback = false; ///< Degraded, but probing may lift it.
  std::map<unsigned, LedgerPin> Ledger; ///< Pins, keyed by region id.
  std::vector<std::pair<unsigned, LedgerPin>> PendingPins;
  std::set<unsigned> EvictedOnce; ///< Evicted ids (refetch accounting).
  std::vector<unsigned> LiveIds;  ///< syncLedger's scratch.
  uint64_t PinnedBytes = 0;
  uint64_t LedgerSeq = 0; ///< Monotone LRU clock.
  unsigned LastFallbackTask = KNone;
  uint64_t FallbackBoundaries = 0;

  std::map<std::pair<unsigned, unsigned>, std::vector<ItemTransfer>>
      MovementCache;
  std::vector<uint64_t> TaskInstrCounts;
  uint64_t TaskInstrsFlushed = 0; ///< instrsSoFar() at the last flush.

  RuntimeRecorder *Rec = nullptr;
  // The open timeline segment (tracked while a recorder or the profiler
  // consumes segments).
  bool SegOpen = false;
  unsigned SegTask = KNone;
  bool SegServer = false;
  Rational SegStart;
  uint64_t SegStartInstrs = 0; ///< instrsSoFar() when the segment opened.

  // Drift-detector state: boundary counters for the evaluation cadence
  // and dwell, and the challenger's confirmation streak.
  uint64_t Boundaries = 0;
  uint64_t BoundariesSinceSwitch = 0;
  bool HavePending = false;
  unsigned PendingChoice = KNone;
  unsigned PendingStreak = 0;
};

const std::vector<ItemTransfer> &Machine::transferSet(unsigned A,
                                                      unsigned B) {
  auto Key = std::make_pair(A, B);
  auto It = MovementCache.find(Key);
  if (It != MovementCache.end())
    return It->second;
  return MovementCache
      .emplace(Key, edgeTransfers(CP.Problem, CP.Partition, Choice, A, B))
      .first->second;
}

bool Machine::crossTask(unsigned NewTask) {
  unsigned OldTask = CurrentTask;
  flushTaskInstrs();
  CurrentTask = NewTask;
  recEndSegment();
  if (clientOnly()) {
    recBeginSegment();
    return true;
  }
  if (!followTask(OldTask, "task-scheduling message"))
    return false;
  for (const ItemTransfer &Move : transferSet(OldTask, NewTask))
    if (!sendLoc(Move.Item, Move.ToServer, OldTask, "data transfer"))
      return false;
  recBeginSegment();
  return true;
}

void Machine::validateCopy(unsigned Id, bool ToServer) {
  MemRegion &Region = Regions[Id];
  // Two valid copies are equal: only a stale destination changes.
  if (!(ToServer ? Region.ClientValid && !Region.ServerValid
                 : Region.ServerValid && !Region.ClientValid))
    return;
  if (!(Region.Saved & (ToServer ? SavedServer : SavedClient)))
    saveCopy(Id, ToServer);
  if (ToServer) {
    Region.Server = Region.Client;
    Region.ServerValid = true;
  } else {
    Region.Client = Region.Server;
    Region.ClientValid = true;
  }
}

bool Machine::maybeAdapt() {
  ++Boundaries;
  ++BoundariesSinceSwitch;
  if (Boundaries % EvalPeriod != 0)
    return true;
  if (Prof->samples() < Opts.Adapt.MinSamples)
    return true;
  if (Counts.Redispatches.size() >= Opts.Adapt.MaxRedispatches)
    return true;

  // Hysteresis: the challenger must beat the incumbent by the margin,
  // keep winning for kConfirmEvals consecutive evaluations, and the run
  // must have dwelt on the incumbent long enough.
  Rational Stay, Go;
  unsigned Best = cheapestSwitch(Choice, Stay, Go);
  if (Best == Choice) {
    HavePending = false;
    PendingStreak = 0;
    return true;
  }
  if (!HavePending || PendingChoice != Best) {
    HavePending = true;
    PendingChoice = Best;
    PendingStreak = 1;
  } else {
    ++PendingStreak;
  }
  if (PendingStreak < kConfirmEvals ||
      BoundariesSinceSwitch < Opts.Adapt.MinDwellBoundaries)
    return true;
  return redispatch(Best, std::move(Stay), std::move(Go));
}

bool Machine::migrateLoc(unsigned D, bool ToServer) {
  const std::vector<unsigned> &Live = LiveOfLoc[D];
  bool Stale = std::any_of(Live.begin(), Live.end(), [&](unsigned Id) {
    return !(ToServer ? Regions[Id].ServerValid : Regions[Id].ClientValid);
  });
  // Nothing live, or every copy valid already: nothing to send.
  return !Stale ||
         sendLoc(D, ToServer, CurrentTask, "re-dispatch data transfer");
}

bool Machine::redispatch(unsigned NewChoice, Rational Stay, Rational Go) {
  recEndSegment(); // The switch happens between tasks.
  RunMark E;
  E.K = RunMark::Kind::Redispatch;
  E.At = Sim.now();
  E.AtTask = CurrentTask;
  E.FromChoice = Choice;
  E.ToChoice = NewChoice;
  E.PredictedStay = std::move(Stay);
  E.PredictedSwitch = std::move(Go);

  Choice = NewChoice;
  // The cached movement sets encode the old choice's certificate.
  MovementCache.clear();

  // Reconcile the live state with the new choice's entry assumptions at
  // this boundary through real (charged, lossy) messages: move the host
  // if the boundary task now runs elsewhere, then make every copy the
  // new certificate claims valid at this task actually valid. A lost
  // message lands in the ordinary rollback path against the checkpoint
  // just taken.
  if (!followTask(CurrentTask, "re-dispatch scheduling message"))
    return false;
  if (Choice == KNone) {
    // All-client from here on: every live region must be client-valid.
    for (unsigned D = 0; D != LiveOfLoc.size(); ++D)
      if (!migrateLoc(D, /*ToServer=*/false))
        return false;
  } else {
    for (unsigned D : CP.Problem.DataItems) {
      auto It = CP.Problem.VNodes.find({CurrentTask, D});
      if (It == CP.Problem.VNodes.end())
        continue;
      if (CP.Partition.nodeValue(Choice, It->second.Vsi) &&
          !migrateLoc(D, /*ToServer=*/true))
        return false;
      if (!CP.Partition.nodeValue(Choice, It->second.NVci) &&
          !migrateLoc(D, /*ToServer=*/false))
        return false;
    }
  }
  // The completed switch is the new rollback anchor and dwell origin.
  takeCheckpoint();
  BoundariesSinceSwitch = 0;
  HavePending = false;
  PendingStreak = 0;

  if (Rec)
    Rec->mark(E);
  Counts.Redispatches.push_back(std::move(E));
  recBeginSegment();
  return true;
}

bool Machine::evalOperand(const Operand &O, Value &Out) {
  switch (O.K) {
  case Operand::Kind::ConstInt:
    Out = Value::ofInt(O.IntVal);
    return true;
  case Operand::Kind::ConstFloat:
    Out = Value::ofDouble(O.FloatVal);
    return true;
  case Operand::Kind::Local:
    return loadMem(frame().LocalRegions[O.Index], 0, Out);
  case Operand::Kind::Global:
    return loadMem(GlobalRegion[O.Index], 0, Out);
  case Operand::Kind::FuncRef:
    Out = Value::ofFunc(O.Index);
    return true;
  case Operand::Kind::RtParam:
    Out = Value::ofInt(Opts.ParamValues[O.Index]);
    return true;
  case Operand::Kind::None:
    Out = Value();
    return true;
  }
  return fail("bad operand");
}

bool Machine::pushFrame(unsigned FuncIdx, unsigned RetFunc, unsigned RetBlock,
                        unsigned RetDstVar) {
  if (Stack.size() > 4096)
    return fail("call stack overflow");
  Frame F;
  F.FuncIdx = FuncIdx;
  F.RetFunc = RetFunc;
  F.RetBlock = RetBlock;
  F.RetDstVar = RetDstVar;
  const IRFunction &Fn = *CP.Module->Functions[FuncIdx];
  F.LocalRegions.reserve(Fn.Locals.size());
  for (unsigned L = 0; L != Fn.Locals.size(); ++L) {
    const LocalVar &Var = Fn.Locals[L];
    size_t Elems = Var.IsArray ? static_cast<size_t>(Var.ArraySize) : 1;
    F.LocalRegions.push_back(
        newRegion(CP.Memory->localLoc(FuncIdx, L), Elems, Var.Type));
  }
  Stack.push_back(std::move(F));
  return true;
}

bool Machine::enterBlock(unsigned FuncIdx, unsigned Block) {
  CurFunc = FuncIdx;
  CurBlock = Block;
  InstrIdx = 0;
  unsigned Task = CP.Graph.taskOfBlock(FuncIdx, Block);
  if (Task != CurrentTask)
    return crossTask(Task);
  return true;
}

bool Machine::execArith(const Instr &I) {
  Value A, B;
  if (!evalOperand(I.A, A) || !evalOperand(I.B, B))
    return false;
  Value Out;
  bool IsDouble = I.Ty == TypeKind::Double;
  switch (I.Op) {
  case Opcode::Add:
    Out = IsDouble ? Value::ofDouble(A.D + B.D)
                   : Value::ofInt(wrapAdd(A.I, B.I));
    break;
  case Opcode::Sub:
    Out = IsDouble ? Value::ofDouble(A.D - B.D)
                   : Value::ofInt(wrapSub(A.I, B.I));
    break;
  case Opcode::Mul:
    Out = IsDouble ? Value::ofDouble(A.D * B.D)
                   : Value::ofInt(wrapMul(A.I, B.I));
    break;
  case Opcode::Div:
    if (IsDouble) {
      Out = Value::ofDouble(B.D == 0.0 ? 0.0 : A.D / B.D);
    } else {
      if (divisionTraps(A.I, B.I))
        return fail(B.I == 0 ? "integer division by zero"
                             : "integer division overflow");
      Out = Value::ofInt(A.I / B.I);
    }
    break;
  case Opcode::Rem:
    if (divisionTraps(A.I, B.I))
      return fail(B.I == 0 ? "integer remainder by zero"
                           : "integer remainder overflow");
    Out = Value::ofInt(A.I % B.I);
    break;
  case Opcode::And: Out = Value::ofInt(A.I & B.I); break;
  case Opcode::Or:  Out = Value::ofInt(A.I | B.I); break;
  case Opcode::Xor: Out = Value::ofInt(A.I ^ B.I); break;
  case Opcode::Shl:
    Out = Value::ofInt(
        static_cast<int64_t>(static_cast<uint64_t>(A.I) << (B.I & 63)));
    break;
  case Opcode::Shr: Out = Value::ofInt(A.I >> (B.I & 63)); break;
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::CmpEq:
  case Opcode::CmpNe: {
    int Cmp = 0;
    if (I.Ty == TypeKind::Double)
      Cmp = A.D < B.D ? -1 : (A.D > B.D ? 1 : 0);
    else if (isPointerType(I.Ty))
      Cmp = A.Region != B.Region ? (A.Region < B.Region ? -1 : 1)
                                 : (A.Off < B.Off ? -1 : (A.Off > B.Off));
    else if (I.Ty == TypeKind::Func)
      Cmp = A.Func != B.Func;
    else
      Cmp = A.I < B.I ? -1 : (A.I > B.I ? 1 : 0);
    bool R = false;
    switch (I.Op) {
    case Opcode::CmpLt: R = Cmp < 0; break;
    case Opcode::CmpLe: R = Cmp <= 0; break;
    case Opcode::CmpGt: R = Cmp > 0; break;
    case Opcode::CmpGe: R = Cmp >= 0; break;
    case Opcode::CmpEq: R = Cmp == 0; break;
    case Opcode::CmpNe: R = Cmp != 0; break;
    default: break;
    }
    Out = Value::ofInt(R);
    break;
  }
  default:
    return fail("bad arithmetic opcode");
  }
  return writeLocal(I.Dst, Out);
}

bool Machine::execInstr(const Instr &I) {
  switch (I.Op) {
  case Opcode::Copy: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    if (I.Dst != KNone)
      return writeLocal(I.Dst, A);
    return true;
  }
  case Opcode::IntToFloat: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    return writeLocal(I.Dst, Value::ofDouble(static_cast<double>(A.I)));
  }
  case Opcode::FloatToInt: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    return writeLocal(I.Dst, Value::ofInt(static_cast<int64_t>(A.D)));
  }
  case Opcode::Neg: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    return writeLocal(I.Dst, I.Ty == TypeKind::Double
                                 ? Value::ofDouble(-A.D)
                                 : Value::ofInt(wrapNeg(A.I)));
  }
  case Opcode::Not: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    return writeLocal(I.Dst, Value::ofInt(A.I == 0));
  }
  case Opcode::BitNot: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    return writeLocal(I.Dst, Value::ofInt(~A.I));
  }
  case Opcode::AddrOfVar: {
    unsigned Region = I.A.K == Operand::Kind::Global
                          ? GlobalRegion[I.A.Index]
                          : frame().LocalRegions[I.A.Index];
    return writeLocal(I.Dst, Value::ofPointer(I.Ty, Region, 0));
  }
  case Opcode::PtrAdd: {
    Value A, B;
    if (!evalOperand(I.A, A) || !evalOperand(I.B, B))
      return false;
    return writeLocal(I.Dst,
                      Value::ofPointer(I.Ty, A.Region, wrapAdd(A.Off, B.I)));
  }
  case Opcode::Load: {
    Value A, B, Out;
    if (!evalOperand(I.A, A) || !evalOperand(I.B, B))
      return false;
    if (!loadMem(A.Region, wrapAdd(A.Off, B.I), Out))
      return false;
    return writeLocal(I.Dst, Out);
  }
  case Opcode::Store: {
    Value A, B, C;
    if (!evalOperand(I.A, A) || !evalOperand(I.B, B) ||
        !evalOperand(I.C, C))
      return false;
    return storeMem(A.Region, wrapAdd(A.Off, B.I), C);
  }
  case Opcode::Malloc: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    if (A.I < 0 || A.I > (int64_t(1) << 28))
      return fail("malloc size out of range");
    unsigned LocId = CP.Memory->allocLoc(I.AllocSite);
    unsigned Region = newRegion(LocId, static_cast<size_t>(A.I),
                                CP.Memory->loc(LocId).ElemType);
    // Registration overhead when the static analysis decides the data is
    // accessed by both hosts (paper section 2.3).
    if (!clientOnly() &&
        registersItem(CP.Problem, CP.Partition, Choice, LocId)) {
      // Registration strikes mid-segment, so the timeline splits the
      // segment around the message.
      recEndSegment();
      if (!recMessage(MessageRecord::Kind::Registration, true, CurrentTask,
                      CurrentTask, LocId, 0,
                      [&] { return Sim.tryRegistration(); }))
        return linkLost("registration");
      recBeginSegment();
    }
    return writeLocal(I.Dst, Value::ofPointer(I.Ty, Region, 0));
  }
  case Opcode::IoRead: {
    if (OnServer)
      return fail("I/O executed on the server (analysis bug)");
    return writeLocal(I.Dst, Value::ofInt(nextInput()));
  }
  case Opcode::IoWrite: {
    if (OnServer)
      return fail("I/O executed on the server (analysis bug)");
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    Result.Outputs.push_back(A.K == TypeKind::Double
                                 ? A.D
                                 : static_cast<double>(A.I));
    return true;
  }
  case Opcode::IoReadBuf:
  case Opcode::IoWriteBuf: {
    if (OnServer)
      return fail("I/O executed on the server (analysis bug)");
    Value A, B;
    if (!evalOperand(I.A, A) || !evalOperand(I.B, B))
      return false;
    bool IsRead = I.Op == Opcode::IoReadBuf;
    for (int64_t K = 0; K != B.I; ++K) {
      if (IsRead) {
        int64_t In = nextInput();
        Value V;
        if (!loadMem(A.Region, wrapAdd(A.Off, K), V))
          return false;
        Value New = V.K == TypeKind::Double
                        ? Value::ofDouble(static_cast<double>(In))
                        : Value::ofInt(In);
        if (!storeMem(A.Region, wrapAdd(A.Off, K), New))
          return false;
      } else {
        Value V;
        if (!loadMem(A.Region, wrapAdd(A.Off, K), V))
          return false;
        Result.Outputs.push_back(V.K == TypeKind::Double
                                     ? V.D
                                     : static_cast<double>(V.I));
      }
    }
    return true;
  }
  case Opcode::Call: {
    std::vector<Value> Args(I.Args.size());
    for (size_t A = 0; A != I.Args.size(); ++A)
      if (!evalOperand(I.Args[A], Args[A]))
        return false;
    if (!pushFrame(I.Callee, CurFunc, I.Succ0, I.Dst))
      return false;
    // Parameter values are written on the caller's host; if the callee
    // runs elsewhere, the validity transfers on the call edge move them.
    for (size_t A = 0; A != Args.size(); ++A)
      if (!storeMem(frame().LocalRegions[A], 0, Args[A]))
        return false;
    return enterBlock(I.Callee, 0);
  }
  case Opcode::CallInd: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    if (A.Func == KNone)
      return fail("indirect call through null func value");
    if (!pushFrame(A.Func, CurFunc, I.Succ0, KNone))
      return false;
    return enterBlock(A.Func, 0);
  }
  case Opcode::Ret: {
    Value RetVal;
    bool HasValue = !I.A.isNone();
    if (HasValue) {
      if (!evalOperand(I.A, RetVal))
        return false;
      if (!storeMem(RetRegion[CurFunc], 0, RetVal))
        return false;
    }
    Frame Done = std::move(Stack.back());
    for (unsigned Region : Done.LocalRegions)
      killRegion(Region);
    Stack.pop_back();
    if (Stack.empty()) {
      // main returned: hand control to the virtual exit task.
      if (!crossTask(CP.Graph.ExitTask))
        return false;
      Finished = true;
      return true;
    }
    unsigned Callee = Done.FuncIdx;
    if (!enterBlock(Done.RetFunc, Done.RetBlock))
      return false;
    if (Done.RetDstVar != KNone) {
      // The continuation task receives the return value (after any
      // transfer on the return edge).
      Value Out;
      if (!loadMem(RetRegion[Callee], 0, Out))
        return false;
      return writeLocal(Done.RetDstVar, Out);
    }
    return true;
  }
  case Opcode::Br: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    return enterBlock(CurFunc, A.I != 0 ? I.Succ0 : I.Succ1);
  }
  case Opcode::Jmp:
    return enterBlock(CurFunc, I.Succ0);
  default:
    return execArith(I);
  }
}

ExecResult Machine::run() {
  obs::ScopedSpan Span("interp.run", "interp");
  if (Rec)
    Rec->clear();
  // Placement choice.
  if (Opts.Mode == ExecOptions::Placement::Forced) {
    Choice = Opts.ForcedChoice;
  } else if (Opts.Mode == ExecOptions::Placement::Dispatch) {
    FullPoint = CP.parameterPoint(Opts.ParamValues);
    Choice = CP.Partition.pickChoice(FullPoint);
  }
  if (ClosedLoop && FullPoint.empty())
    FullPoint = CP.parameterPoint(Opts.ParamValues);
  Result.ChoiceUsed = Choice;
  if (Rec) // Before the entry task: no task is active yet.
    Rec->mark(RunMark::Kind::RunStart, Rational(0), CurrentTask);

  LiveOfLoc.resize(CP.Memory->numLocs());
  // Globals: client copies take the initializers, server copies start
  // zeroed (they are invalid until a transfer).
  GlobalRegion.resize(CP.Module->Globals.size());
  for (unsigned G = 0; G != CP.Module->Globals.size(); ++G) {
    const GlobalVar &Var = CP.Module->Globals[G];
    size_t Elems = Var.IsArray ? static_cast<size_t>(Var.ArraySize) : 1;
    GlobalRegion[G] = newRegion(CP.Memory->globalLoc(G), Elems, Var.Type);
    MemRegion &Region = Regions[GlobalRegion[G]];
    if (!Var.Init.empty()) {
      Region.ClientValid = true;
      Region.ServerValid = false;
    }
    std::vector<Value> &Client = Region.Client;
    for (size_t K = 0; K != Var.Init.size() && K != Elems; ++K) {
      const Operand &Init = Var.Init[K];
      Client[K] = Var.Type == TypeKind::Double
                      ? Value::ofDouble(Init.K == Operand::Kind::ConstFloat
                                            ? Init.FloatVal
                                            : double(Init.IntVal))
                      : Value::ofInt(Init.IntVal);
    }
  }
  RetRegion.resize(CP.Module->Functions.size());
  for (unsigned F = 0; F != CP.Module->Functions.size(); ++F) {
    TypeKind Ty = CP.Module->Functions[F]->RetType;
    RetRegion[F] = newRegion(CP.Memory->retLoc(F), 1,
                             Ty == TypeKind::Void ? TypeKind::Int : Ty);
  }

  TaskInstrCounts.assign(CP.Graph.numTasks(), 0);
  CurrentTask = CP.Graph.EntryTask;
  OnServer = false;
  if (CP.Module->MainIndex == KNone) {
    Result.Error = "no main function";
    Result.Failure = ExecResult::FailureKind::BadInput;
    return Result;
  }
  if (!pushFrame(CP.Module->MainIndex, KNone, KNone, KNone))
    return Result;

  // Arm task-boundary checkpointing only when a fault can actually
  // strike and the policy wants recovery, or when the closed loop needs
  // boundaries to re-dispatch at; the common (fault-free, static) case
  // never pays for it. A drift schedule with Down phases can fail even
  // a nominally fault-free link. The initial checkpoint describes the
  // state "about to execute main's first instruction, locally": even a
  // failure on the very first task boundary can roll back to it.
  bool DriftCanFail = false;
  for (const DriftPhase &P : Opts.Drift.Phases)
    DriftCanFail = DriftCanFail || P.Down;
  CheckpointsOn =
      Choice != KNone &&
      ((Opts.OnLinkFailure == FaultPolicy::DegradeToLocal &&
        (!Opts.Link.faultFree() || DriftCanFail || CrashArmed)) ||
       ClosedLoop);
  // The recovery ledger runs only when a crash can actually destroy
  // server-held data *and* the policy will roll back instead of failing.
  LedgerOn = CrashArmed && Choice != KNone &&
             Opts.OnLinkFailure == FaultPolicy::DegradeToLocal &&
             CheckpointsOn;
  if (CheckpointsOn) {
    unsigned SavedTask = CurrentTask;
    CurrentTask = CP.Graph.taskOfBlock(CP.Module->MainIndex, 0);
    CurFunc = CP.Module->MainIndex;
    CurBlock = 0;
    InstrIdx = 0;
    takeCheckpoint();
    CurrentTask = SavedTask;
  }

  recBeginSegment(); // The virtual entry task opens the timeline.
  if (!enterBlock(CP.Module->MainIndex, 0))
    rollback(); // Either restores into the loop below or leaves Failed set.

  while (!Failed && !Finished) {
    // Server lifecycle events fire strictly at the instruction/message
    // grain the simulated clock advances by; handle them at the loop
    // top, where no instruction is mid-flight.
    if (CrashArmed && Sim.serverEventPending() && !handleServerEvents() &&
        !rollback())
      break;
    if (CheckpointsOn && LocalFallback) {
      // Probing fallback: no checkpoints (the client-only run cannot
      // fail recoverably), but each fresh task boundary may probe.
      if (CurrentTask != LastFallbackTask) {
        LastFallbackTask = CurrentTask;
        if (!maybeProbe() && !rollback())
          break;
      }
    } else if (CheckpointsOn && !Degraded &&
               CurrentTask != Ckpt.CurrentTask) {
      // Pin server-authoritative items *before* the checkpoint, and
      // re-check for a crash that crossed mid-sync: the pins commit
      // only together with the snapshot they protect.
      if (LedgerOn && !syncLedger()) {
        if (!rollback())
          break;
        continue;
      }
      if (CrashArmed && Sim.serverEventPending())
        continue;
      takeCheckpoint();
      if (LedgerOn)
        commitLedger();
      // The boundary checkpoint doubles as the re-dispatch point: the
      // drift detector runs here, where no instruction is mid-flight
      // and a failed switch can roll back to the snapshot just taken.
      if (ClosedLoop && !maybeAdapt() && !rollback())
        break;
    }
    const BasicBlock &Block = func().Blocks[CurBlock];
    if (InstrIdx >= Block.Instrs.size()) {
      fail("fell off the end of a basic block");
      break;
    }
    const Instr &I = Block.Instrs[InstrIdx++];
    // Charge the instruction's cost weight: 1 straight from lowering, or
    // the folded weight of optimized-away neighbours, so simulated time
    // and instruction accounting match the unoptimized program exactly.
    if (instrsSoFar() + I.Units > Opts.MaxInstructions) {
      fail("instruction budget exceeded",
           ExecResult::FailureKind::InstructionLimit);
      break;
    }
    Sim.execInstructions(OnServer, I.Units);
    if (!execInstr(I) && !rollback())
      break;
  }
  recEndSegment();
  flushTaskInstrs();

  Result.OK = !Failed;
  Result.Time = Sim.elapsed();
  Result.EnergyJoules = Sim.energyJoules(Energy);
  static_cast<RunCounters &>(Result) = Counts;
  // A run still sitting in the probing fallback at exit finished on the
  // client, exactly like a permanent degrade.
  Result.Degraded = Degraded || LocalFallback;
  Result.FinalChoice = clientOnly() ? KNone : Choice;
  for (unsigned T = 0; T != TaskInstrCounts.size(); ++T)
    if (TaskInstrCounts[T])
      Result.TaskInstrs[T] = TaskInstrCounts[T];
  Span.arg("instructions", instrsSoFar());
  Span.arg("transfers", Result.TransferCount);
  Span.arg("migrations", Result.Migrations);
  if (Rec)
    Rec->mark(RunMark::Kind::RunEnd, Result.Time, CurrentTask);
  return Result;
}

} // namespace

ExecResult paco::runProgram(const CompiledProgram &CP, const ExecOptions &Opts,
                            const EnergyModel &Energy) {
  ExecResult Result = Machine(CP, Opts, Energy).run();
  publish(Result);
  return Result;
}
