// Trace rendering and knowledge-graph export.
#include <gtest/gtest.h>

#include "ruco/sim/schedulers.h"
#include "ruco/sim/system.h"
#include "ruco/sim/trace_render.h"
#include "ruco/simalgos/programs.h"

namespace ruco::sim {
namespace {

Op writer(Ctx& ctx, ObjectId o, Value v) {
  co_await ctx.write(o, v);
  co_return 0;
}
Op reader(Ctx& ctx, ObjectId o) { co_return co_await ctx.read(o); }

TEST(TraceRender, ColumnsPerProcess) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return writer(ctx, o, 5); });
  prog.add_process([o](Ctx& ctx) { return reader(ctx, o); });
  System sys{prog};
  sys.step(0);
  sys.step(1);
  const std::string out = render_trace(sys.trace(), 2);
  EXPECT_NE(out.find("p0"), std::string::npos);
  EXPECT_NE(out.find("p1"), std::string::npos);
  EXPECT_NE(out.find("write o0 := 5"), std::string::npos);
  EXPECT_NE(out.find("read o0 -> 5"), std::string::npos);
  // The read (by p1) is indented into the second column.
  const auto read_line = out.find("read o0");
  ASSERT_NE(read_line, std::string::npos);
  const auto line_start = out.rfind('\n', read_line) + 1;
  EXPECT_GT(read_line - line_start, 0u) << "p1's column is not the first";
}

TEST(TraceRender, MarksTrivialEvents) {
  Program prog;
  const ObjectId o = prog.add_object(5);
  prog.add_process([o](Ctx& ctx) { return writer(ctx, o, 5); });  // trivial
  System sys{prog};
  sys.step(0);
  const std::string out = render_trace(sys.trace(), 1);
  EXPECT_NE(out.find("write o0 := 5 ."), std::string::npos);
}

TEST(TraceRender, TruncatesAtLimit) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) -> Op {
    for (int i = 0; i < 10; ++i) co_await ctx.write(o, i);
    co_return 0;
  });
  System sys{prog};
  run_solo(sys, 0, 100);
  TraceRenderOptions options;
  options.max_events = 3;
  const std::string out = render_trace(sys.trace(), 1, options);
  EXPECT_NE(out.find("(7 more)"), std::string::npos);
}

TEST(TraceRender, MarkTrivialOffDropsTheDot) {
  Program prog;
  const ObjectId o = prog.add_object(5);
  prog.add_process([o](Ctx& ctx) { return writer(ctx, o, 5); });  // trivial
  System sys{prog};
  sys.step(0);
  TraceRenderOptions options;
  options.mark_trivial = false;
  const std::string out = render_trace(sys.trace(), 1, options);
  EXPECT_NE(out.find("write o0 := 5"), std::string::npos);
  EXPECT_EQ(out.find("write o0 := 5 ."), std::string::npos);
}

TEST(TraceRender, KcasCellListsItsWords) {
  // The k-CAS counter's increment: read its leaf (o1), read the root (o0),
  // then one 2-CAS over both, whose words the cell lists in order.
  auto bundle = simalgos::make_kcas_counter_program(2);
  System sys{bundle.program};
  run_solo(sys, 0, 100);
  ASSERT_EQ(sys.trace().size(), 3u);
  const std::string out = render_trace(sys.trace(), sys.num_processes());
  EXPECT_NE(out.find("kcas o1 o0 ok"), std::string::npos) << out;
}

TEST(KnowledgeDot, CrashedProcessKeepsPreCrashEdges) {
  Program prog;
  const ObjectId a = prog.add_object(0);
  const ObjectId b = prog.add_object(0);
  prog.add_process([a](Ctx& ctx) { return writer(ctx, a, 1); });
  prog.add_process([a, b](Ctx& ctx) -> Op {
    (void)co_await ctx.read(a);
    co_await ctx.write(b, 2);
    co_return 0;
  });
  System sys{prog};
  sys.step(0);
  sys.step(1);  // p1 reads a -> aware of p0
  sys.crash(1);
  ASSERT_TRUE(sys.crashed(1));
  // The crash leaves no trace event; the dot export must still render the
  // flow that happened before the crash and nothing after it.
  const std::string dot =
      knowledge_dot(sys.trace(), sys.num_processes(), sys.num_objects());
  EXPECT_NE(dot.find("p0 -> p1 [label=\"o0\"]"), std::string::npos) << dot;
  EXPECT_EQ(dot.find("p1 -> p0"), std::string::npos) << dot;
}

TEST(KnowledgeDot, EdgesFollowInformationFlow) {
  Program prog;
  const ObjectId a = prog.add_object(0);
  const ObjectId b = prog.add_object(0);
  prog.add_process([a](Ctx& ctx) { return writer(ctx, a, 1); });
  prog.add_process([a, b](Ctx& ctx) -> Op {
    (void)co_await ctx.read(a);
    co_await ctx.write(b, 2);
    co_return 0;
  });
  prog.add_process([b](Ctx& ctx) { return reader(ctx, b); });
  System sys{prog};
  const std::vector<ProcId> script{0, 1, 1, 2};
  run_script(sys, script);
  const std::string dot =
      knowledge_dot(sys.trace(), sys.num_processes(), sys.num_objects());
  EXPECT_NE(dot.find("p0 -> p1 [label=\"o0\"]"), std::string::npos)
      << dot;
  EXPECT_NE(dot.find("p1 -> p2 [label=\"o1\"]"), std::string::npos)
      << dot;
  EXPECT_NE(dot.find("p0 -> p2"), std::string::npos) << "transitive edge";
  EXPECT_EQ(dot.find("p2 -> p0"), std::string::npos)
      << "no flow back to the writer";
}

TEST(KnowledgeDot, EmptyExecutionHasNoEdges) {
  Program prog;
  prog.add_object(0);
  prog.add_process([](Ctx& ctx) -> Op {
    (void)ctx;
    co_return 0;
  });
  System sys{prog};
  const std::string dot = knowledge_dot(sys.trace(), 1, 1);
  EXPECT_EQ(dot.find("->"), std::string::npos);
}

}  // namespace
}  // namespace ruco::sim
