#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace nicmcast::sim {
namespace {

TEST(Tracer, DisabledByDefault) {
  Tracer t;
  EXPECT_FALSE(t.enabled("nic"));
  t.emit(TimePoint{0}, "nic", "node0.nic", "hello");
  EXPECT_TRUE(t.records().empty());
}

TEST(Tracer, EnabledCategoryRetainsRecords) {
  Tracer t;
  t.enable("nic");
  t.emit(TimePoint{1000}, "nic", "node0.nic", "tx packet 1");
  t.emit(TimePoint{2000}, "net", "link0", "ignored");
  ASSERT_EQ(t.records().size(), 1u);
  EXPECT_EQ(t.records()[0].category, "nic");
  EXPECT_EQ(t.records()[0].actor, "node0.nic");
  EXPECT_EQ(t.records()[0].when, TimePoint{1000});
}

TEST(Tracer, SinkReceivesFormattedLines) {
  Tracer t;
  std::ostringstream os;
  t.enable("gm");
  t.set_sink(&os);
  t.emit(TimePoint{1500}, "gm", "node2.host", "send posted");
  EXPECT_EQ(os.str(), "[1.5us] gm node2.host: send posted\n");
}

TEST(Tracer, RetainFalseStreamsOnly) {
  Tracer t;
  std::ostringstream os;
  t.enable("net");
  t.set_sink(&os);
  t.set_retain(false);
  t.emit(TimePoint{0}, "net", "a", "m");
  EXPECT_TRUE(t.records().empty());
  EXPECT_FALSE(os.str().empty());
}

}  // namespace
}  // namespace nicmcast::sim
