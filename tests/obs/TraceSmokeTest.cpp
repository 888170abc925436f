//===- tests/obs/TraceSmokeTest.cpp - Traced explorer run -----------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// `offload_explorer fft --params 4,256,8,0 --run --trace=...`: the trace
// is well-formed Chrome trace JSON, the wall-clock process (pid 1) holds
// the pipeline and interpreter spans, and the simulated-run process
// (pid 2) shows every runtime message the recorder saw on its channel
// lane. The trace holds complete and metadata events only.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "obs/Trace.h"
#include "programs/Programs.h"
#include "support/JSON.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace paco;

namespace {

TEST(TraceSmokeTest, FftRunTracesSpansAndEveryMessage) {
  obs::Tracer &T = obs::Tracer::global();
  T.enable();
  T.clear();
  std::string Diags;
  auto CP = compileForOffloading(programs::programByName("fft").Source,
                                 CostModel::defaults(), {}, &Diags);
  ASSERT_TRUE(CP) << Diags;
  ExecOptions LocalOpts;
  LocalOpts.ParamValues = {4, 256, 8, 0};
  ExecResult Local = runProgram(*CP, LocalOpts);
  ASSERT_TRUE(Local.OK) << Local.Error;

  RuntimeRecorder Recorder;
  ExecOptions Opts = LocalOpts;
  Opts.Mode = ExecOptions::Placement::Dispatch;
  Opts.Recorder = &Recorder;
  ExecResult R = runProgram(*CP, Opts);
  ASSERT_TRUE(R.OK) << R.Error;
  EXPECT_EQ(R.Outputs, Local.Outputs);
  std::vector<std::string> TaskLabels, DataLabels;
  for (const TCFG::Task &Task : CP->Graph.Tasks)
    TaskLabels.push_back(Task.Label);
  for (unsigned D = 0; D != CP->Memory->numLocs(); ++D)
    DataLabels.push_back(CP->Memory->loc(D).Name);
  Recorder.emitChromeLanes(T, TaskLabels, DataLabels);
  T.disable();

  json::ParseResult Trace = json::parse(T.toJSON());
  T.clear();
  ASSERT_TRUE(Trace.Ok) << Trace.Error;
  const json::Value *Events = Trace.V.find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  std::set<std::string> Spans;
  std::map<std::string, size_t> Channel;
  size_t ChannelEvents = 0;
  for (const json::Value &E : Events->array()) {
    const std::string &Phase = E.find("ph")->text();
    EXPECT_TRUE(Phase == "X" || Phase == "M") << "phase " << Phase;
    if (Phase != "X")
      continue;
    const std::string &Name = E.find("name")->text();
    if (E.find("pid")->number() == 1)
      Spans.insert(Name);
    else if (E.find("pid")->number() == RuntimeRecorder::TracePid &&
             E.find("tid")->number() == 3) {
      ++Channel[Name];
      ++ChannelEvents;
    }
  }
  for (const char *Span : {"pipeline.compile", "lang.parse", "tcfg.build",
                           "partition.solve", "interp.run"})
    EXPECT_TRUE(Spans.count(Span)) << "missing span " << Span;
  EXPECT_EQ(ChannelEvents, Recorder.messages().size());
  EXPECT_EQ(ChannelEvents, 16u);
  EXPECT_EQ(Channel["schedule"], 2u);
  EXPECT_EQ(Channel["transfer"], 10u);
  EXPECT_EQ(Channel["register"], 4u);
}

} // namespace
