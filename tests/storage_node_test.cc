#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "src/corfu/storage_node.h"
#include "src/net/inproc_transport.h"
#include "src/net/tcp_transport.h"
#include "src/obs/metrics.h"
#include "src/storage/segment_store.h"
#include "src/util/threading.h"
#include "tests/test_env.h"

namespace corfu {
namespace {

using tango::StatusCode;
using tango_test::Bytes;

class StorageNodeTest : public ::testing::Test {
 protected:
  StorageNodeTest() : node_(&transport_, 1, StorageNode::Options{}) {}

  tango::InProcTransport transport_;
  StorageNode node_;
};

TEST_F(StorageNodeTest, WriteThenRead) {
  ASSERT_TRUE(node_.WriteLocal(0, 5, Bytes("hello")).ok());
  auto read = node_.ReadLocal(0, 5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(tango_test::Str(*read), "hello");
}

TEST_F(StorageNodeTest, WriteOnceEnforced) {
  ASSERT_TRUE(node_.WriteLocal(0, 5, Bytes("first")).ok());
  EXPECT_EQ(node_.WriteLocal(0, 5, Bytes("second")).code(),
            StatusCode::kWritten);
  auto read = node_.ReadLocal(0, 5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(tango_test::Str(*read), "first");
}

TEST_F(StorageNodeTest, UnwrittenRead) {
  EXPECT_EQ(node_.ReadLocal(0, 9).status().code(), StatusCode::kUnwritten);
}

TEST_F(StorageNodeTest, PageSizeEnforced) {
  std::vector<uint8_t> big(5000, 0);
  EXPECT_EQ(node_.WriteLocal(0, 0, big).code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageNodeTest, SealRejectsOldEpochs) {
  ASSERT_TRUE(node_.WriteLocal(0, 0, Bytes("a")).ok());
  auto tail = node_.Seal(1);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, 1u);
  EXPECT_EQ(node_.WriteLocal(0, 1, Bytes("b")).code(),
            StatusCode::kSealedEpoch);
  EXPECT_EQ(node_.ReadLocal(0, 0).status().code(), StatusCode::kSealedEpoch);
  // The new epoch works.
  EXPECT_TRUE(node_.WriteLocal(1, 1, Bytes("b")).ok());
  EXPECT_TRUE(node_.ReadLocal(1, 0).ok());
}

TEST_F(StorageNodeTest, SealMustIncreaseEpoch) {
  ASSERT_TRUE(node_.Seal(2).ok());
  EXPECT_EQ(node_.Seal(2).status().code(), StatusCode::kSealedEpoch);
  EXPECT_EQ(node_.Seal(1).status().code(), StatusCode::kSealedEpoch);
  EXPECT_TRUE(node_.Seal(3).ok());
}

TEST_F(StorageNodeTest, SealReturnsLocalTail) {
  ASSERT_TRUE(node_.WriteLocal(0, 0, Bytes("a")).ok());
  ASSERT_TRUE(node_.WriteLocal(0, 7, Bytes("b")).ok());  // sparse write
  auto tail = node_.Seal(1);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, 8u);
}

TEST_F(StorageNodeTest, TrimSingleOffset) {
  ASSERT_TRUE(node_.WriteLocal(0, 3, Bytes("x")).ok());
  ASSERT_TRUE(node_.TrimLocal(0, 3).ok());
  EXPECT_EQ(node_.ReadLocal(0, 3).status().code(), StatusCode::kTrimmed);
  // A write to a trimmed offset is rejected as trimmed too.
  EXPECT_EQ(node_.WriteLocal(0, 3, Bytes("y")).code(), StatusCode::kTrimmed);
  EXPECT_EQ(node_.trimmed_count(), 1u);
}

TEST_F(StorageNodeTest, TrimUnwrittenOffsetBlocksFutureWrite) {
  ASSERT_TRUE(node_.TrimLocal(0, 4).ok());
  EXPECT_EQ(node_.WriteLocal(0, 4, Bytes("y")).code(), StatusCode::kTrimmed);
}

TEST_F(StorageNodeTest, TrimPrefixReclaims) {
  for (LogOffset o = 0; o < 10; ++o) {
    ASSERT_TRUE(node_.WriteLocal(0, o, Bytes("v")).ok());
  }
  EXPECT_EQ(node_.PageCount(), 10u);
  ASSERT_TRUE(node_.TrimPrefixLocal(0, 6).ok());
  EXPECT_EQ(node_.PageCount(), 4u);
  EXPECT_EQ(node_.ReadLocal(0, 5).status().code(), StatusCode::kTrimmed);
  EXPECT_TRUE(node_.ReadLocal(0, 6).ok());
  // Prefix trim is monotone; shrinking it is a no-op.
  ASSERT_TRUE(node_.TrimPrefixLocal(0, 2).ok());
  EXPECT_EQ(node_.ReadLocal(0, 5).status().code(), StatusCode::kTrimmed);
}

TEST_F(StorageNodeTest, RpcSurface) {
  // Exercise the same semantics over the wire.
  tango::ByteWriter w;
  w.PutU32(0);
  w.PutU64(11);
  w.PutBlob(Bytes("net"));
  ASSERT_TRUE(transport_.Call(1, kStorageWrite, w.bytes(), nullptr).ok());

  tango::ByteWriter r;
  r.PutU32(0);
  r.PutU64(11);
  std::vector<uint8_t> resp;
  ASSERT_TRUE(transport_.Call(1, kStorageRead, r.bytes(), &resp).ok());
  tango::ByteReader reader(resp);
  EXPECT_EQ(tango_test::Str(reader.GetBlob()), "net");

  // Duplicate write over RPC reports kWritten.
  EXPECT_EQ(transport_.Call(1, kStorageWrite, w.bytes(), nullptr).code(),
            StatusCode::kWritten);

  // Local tail query.
  tango::ByteWriter t;
  t.PutU32(0);
  ASSERT_TRUE(transport_.Call(1, kStorageLocalTail, t.bytes(), &resp).ok());
  tango::ByteReader tail_reader(resp);
  EXPECT_EQ(tail_reader.GetU64(), 12u);
}

TEST(StorageNodeLatencyTest, SimulatedWriteLatency) {
  tango::InProcTransport transport;
  StorageNode::Options options;
  options.write_latency_us = 2000;
  StorageNode node(&transport, 1, options);
  uint64_t start = tango::NowMicros();
  ASSERT_TRUE(node.WriteLocal(0, 0, Bytes("x")).ok());
  EXPECT_GE(tango::NowMicros() - start, 1500u);
}

// --- Write dispatch over TCP ---------------------------------------------------

uint64_t DispatchCount(const std::string& where) {
  return tango::obs::MetricsRegistry::Default()
      .GetCounter("net.tcp.dispatch." + where)
      ->Value();
}

tango::Status RpcWrite(tango::Transport& t, LogOffset local,
                       const std::string& value) {
  tango::ByteWriter w;
  w.PutU32(0);
  w.PutU64(local);
  w.PutBlob(Bytes(value));
  return t.Call(1, kStorageWrite, w.bytes(), nullptr);
}

// Net change in the loop / pool / bounced dispatch counters across `fn`.
struct DispatchDelta {
  uint64_t loop, pool, bounced;
};

template <typename Fn>
DispatchDelta Measure(Fn fn) {
  uint64_t loop = DispatchCount("loop"), pool = DispatchCount("pool"),
           bounced = DispatchCount("bounced");
  fn();
  return {DispatchCount("loop") - loop, DispatchCount("pool") - pool,
          DispatchCount("bounced") - bounced};
}

class StorageNodeTcpTest : public ::testing::Test {
 protected:
  ~StorageNodeTcpTest() override {
    node_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Start(StorageNode::Options options) {
    node_ = std::make_unique<StorageNode>(&transport_, 1, options);
  }

  StorageNode::Options Durable(uint32_t fsync_batch) {
    StorageNode::Options options;
    options.data_dir = dir_.string();
    options.fsync_batch = fsync_batch;
    options.flush_interval_ms = 0;
    return options;
  }

  storage::SegmentStoreBackend* store() {
    return static_cast<storage::SegmentStoreBackend*>(node_->backend());
  }

  std::filesystem::path dir_ = std::filesystem::temp_directory_path() /
                               ("tango-node-tcp-" + std::to_string(::getpid()));
  tango::TcpTransport transport_;
  std::unique_ptr<StorageNode> node_;
};

TEST_F(StorageNodeTcpTest, MemoryWriteIsServedOnTheLoop) {
  Start(StorageNode::Options{});
  DispatchDelta d =
      Measure([&] { ASSERT_TRUE(RpcWrite(transport_, 0, "a").ok()); });
  EXPECT_EQ(d.loop, 1u);
  EXPECT_EQ(d.pool, 0u);
  EXPECT_EQ(d.bounced, 0u);
  // Reads are not declared never-blocking: they stay on the pool.
  tango::ByteWriter r;
  r.PutU32(0);
  r.PutU64(0);
  d = Measure([&] {
    ASSERT_TRUE(transport_.Call(1, kStorageRead, r.bytes(), nullptr).ok());
  });
  EXPECT_EQ(d.loop, 0u);
  EXPECT_EQ(d.pool, 1u);
}

TEST_F(StorageNodeTcpTest, SimulatedMediaLatencyBouncesToThePool) {
  StorageNode::Options options;
  options.write_latency_us = 500;
  Start(options);
  DispatchDelta d =
      Measure([&] { ASSERT_TRUE(RpcWrite(transport_, 0, "a").ok()); });
  EXPECT_EQ(d.loop, 0u);
  EXPECT_EQ(d.pool, 1u);
  EXPECT_EQ(d.bounced, 1u);
  EXPECT_EQ(node_->PageCount(), 1u);
}

TEST_F(StorageNodeTcpTest, DurableWriteNeedingAnFsyncIsAdmittedOnceOnThePool) {
  Start(Durable(/*fsync_batch=*/1));
  DispatchDelta d =
      Measure([&] { ASSERT_TRUE(RpcWrite(transport_, 0, "a").ok()); });
  EXPECT_EQ(d.loop, 0u);
  EXPECT_EQ(d.pool, 1u);
  EXPECT_EQ(d.bounced, 1u);
  EXPECT_EQ(node_->PageCount(), 1u);
  EXPECT_EQ(store()->fsyncs(), 1u);
  EXPECT_EQ(RpcWrite(transport_, 0, "b").code(), StatusCode::kWritten);
}

TEST_F(StorageNodeTcpTest, DurableWritesBetweenFsyncsAreServedOnTheLoop) {
  Start(Durable(/*fsync_batch=*/4));
  DispatchDelta d = Measure([&] {
    for (LogOffset o = 0; o < 8; ++o) {
      ASSERT_TRUE(RpcWrite(transport_, o, "v").ok()) << o;
    }
  });
  // Records 4 and 8 each complete a batch of 4 and bounce for the fsync.
  EXPECT_EQ(d.loop, 6u);
  EXPECT_EQ(d.pool, 2u);
  EXPECT_EQ(d.bounced, 2u);
  EXPECT_EQ(node_->PageCount(), 8u);
  EXPECT_EQ(store()->fsyncs(), 2u);
}

}  // namespace
}  // namespace corfu
