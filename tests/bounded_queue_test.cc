#include "stream/bounded_queue.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fcp {
namespace {

TEST(BoundedQueueTest, PushPopFifo) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
}

TEST(BoundedQueueTest, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.size(), 2u);
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BoundedQueueTest, TryPopEmptyReturnsNullopt) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.TryPop(), std::nullopt);
  q.TryPush(5);
  EXPECT_EQ(q.TryPop(), 5);
}

TEST(BoundedQueueTest, CloseWakesConsumerAndDrains) {
  BoundedQueue<int> q(4);
  q.TryPush(1);
  q.Close();
  EXPECT_FALSE(q.TryPush(2));  // closed
  EXPECT_EQ(q.Pop(), 1);       // drains remaining
  EXPECT_EQ(q.Pop(), std::nullopt);
  EXPECT_TRUE(q.closed());
}

TEST(BoundedQueueTest, BlockingPopWaitsForProducer) {
  BoundedQueue<int> q(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.TryPush(42);
  });
  EXPECT_EQ(q.Pop(), 42);  // blocks until producer delivers
  producer.join();
}

TEST(BoundedQueueTest, ConcurrentProducersConsumers) {
  constexpr int kPerProducer = 2000;
  BoundedQueue<int> q(64);
  std::atomic<int> consumed{0};
  std::atomic<long long> sum{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum += *v;
        ++consumed;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!q.TryPush(1)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), 2 * kPerProducer);
  EXPECT_EQ(sum.load(), 2 * kPerProducer);
}

TEST(BoundedQueueTest, DepthTracksOccupancy) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.depth(), 0u);
  q.TryPush(1);
  q.TryPush(2);
  EXPECT_EQ(q.depth(), 2u);
  q.Pop();
  EXPECT_EQ(q.depth(), 1u);
}

TEST(BoundedQueueTest, HighWatermarkIsMonotone) {
  BoundedQueue<int> q(8);
  EXPECT_EQ(q.high_watermark(), 0u);
  q.TryPush(1);
  q.TryPush(2);
  q.TryPush(3);
  EXPECT_EQ(q.high_watermark(), 3u);
  q.Pop();
  q.Pop();
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.high_watermark(), 3u);  // drains never lower the watermark
  q.TryPush(4);
  EXPECT_EQ(q.high_watermark(), 3u);  // depth 2 < previous peak 3
  q.TryPush(5);
  q.TryPush(6);
  EXPECT_EQ(q.high_watermark(), 4u);
}

TEST(BoundedQueueTest, HighWatermarkViaBlockingPush) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Push(2);
  EXPECT_EQ(q.high_watermark(), 2u);
}

TEST(BoundedQueueTest, HighWatermarkUnderConcurrentPushPop) {
  constexpr int kPerProducer = 4000;
  constexpr size_t kCapacity = 32;
  BoundedQueue<int> q(kCapacity);
  std::atomic<int> consumed{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (q.Pop()) ++consumed;
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(i);
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(consumed.load(), 2 * kPerProducer);
  EXPECT_EQ(q.depth(), 0u);
  // The peak is racy by nature but always bounded: at least one item was
  // enqueued, never more than capacity.
  EXPECT_GE(q.high_watermark(), 1u);
  EXPECT_LE(q.high_watermark(), kCapacity);
}

TEST(BoundedQueueTest, PushAllKeepsFifoOrder) {
  BoundedQueue<int> q(16);
  std::vector<int> batch = {1, 2, 3, 4, 5};
  EXPECT_EQ(q.PushAll(&batch), 5u);
  EXPECT_TRUE(batch.empty());  // elements moved out, buffer reusable
  for (int want = 1; want <= 5; ++want) {
    auto got = q.TryPop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, want);
  }
  std::vector<int> empty;
  EXPECT_EQ(q.PushAll(&empty), 0u);
}

TEST(BoundedQueueTest, PushAllLargerThanCapacityBlocksUntilDrained) {
  // A batch 4x the capacity must flow through in chunks while a consumer
  // drains, preserving order and losing nothing.
  constexpr size_t kCapacity = 8;
  constexpr int kTotal = 32;
  BoundedQueue<int> q(kCapacity);
  std::vector<int> popped;
  std::thread consumer([&] {
    while (auto item = q.Pop()) popped.push_back(*item);
  });
  std::vector<int> batch;
  for (int i = 0; i < kTotal; ++i) batch.push_back(i);
  EXPECT_EQ(q.PushAll(&batch), static_cast<size_t>(kTotal));
  q.Close();
  consumer.join();
  ASSERT_EQ(popped.size(), static_cast<size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) EXPECT_EQ(popped[i], i);
  EXPECT_EQ(q.high_watermark(), kCapacity);
}

TEST(BoundedQueueTest, HighWatermarkAcrossPushAllBursts) {
  // Burst ingestion is the PushBatch path: the watermark must capture the
  // peak occupancy of every burst, not just single-Push increments, and
  // must survive full drains between bursts.
  BoundedQueue<int> q(16);
  std::vector<int> burst = {1, 2, 3, 4, 5};
  EXPECT_EQ(q.PushAll(&burst), 5u);
  EXPECT_EQ(q.high_watermark(), 5u);
  while (q.TryPop()) {
  }
  EXPECT_EQ(q.depth(), 0u);

  burst = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(q.PushAll(&burst), 9u);
  EXPECT_EQ(q.high_watermark(), 9u);  // larger burst raises the peak
  while (q.TryPop()) {
  }

  burst = {1, 2, 3};
  EXPECT_EQ(q.PushAll(&burst), 3u);
  EXPECT_EQ(q.high_watermark(), 9u);  // smaller burst never lowers it
}

TEST(BoundedQueueTest, HighWatermarkCountsBurstOnTopOfResidue) {
  // A burst landing on a partially-filled queue peaks at residue + burst.
  BoundedQueue<int> q(16);
  q.Push(1);
  q.Push(2);
  q.Push(3);
  std::vector<int> burst = {4, 5, 6, 7};
  EXPECT_EQ(q.PushAll(&burst), 4u);
  EXPECT_EQ(q.high_watermark(), 7u);
}

TEST(BoundedQueueTest, HighWatermarkChunkedPushAllPeaksAtCapacity) {
  // When the burst exceeds capacity, each chunk tops the queue off, so the
  // recorded peak is exactly the capacity regardless of drain interleaving.
  constexpr size_t kCapacity = 8;
  BoundedQueue<int> q(kCapacity);
  std::thread consumer([&] {
    while (q.Pop()) {
    }
  });
  std::vector<int> burst(kCapacity * 4, 7);
  EXPECT_EQ(q.PushAll(&burst), kCapacity * 4);
  q.Close();
  consumer.join();
  EXPECT_EQ(q.high_watermark(), kCapacity);
}

TEST(BoundedQueueTest, WatermarkAndDepthSampledConcurrently) {
  // A telemetry thread samples depth()/high_watermark() while producers
  // burst PushAll and consumers drain — the accessors must be data-race
  // free (TSan runs this suite) and every sample must respect the bounds.
  constexpr size_t kCapacity = 32;
  constexpr int kBursts = 200;
  BoundedQueue<int> q(kCapacity);
  std::atomic<bool> sampling{true};
  std::atomic<int> consumed{0};

  std::thread sampler([&] {
    while (sampling.load(std::memory_order_relaxed)) {
      const size_t depth = q.depth();
      const size_t watermark = q.high_watermark();
      EXPECT_LE(depth, kCapacity);
      EXPECT_LE(watermark, kCapacity);
      std::this_thread::yield();
    }
  });
  std::thread consumer([&] {
    while (q.Pop()) ++consumed;
  });
  std::thread producer([&] {
    std::vector<int> burst;
    for (int b = 0; b < kBursts; ++b) {
      burst.assign(10, b);
      q.PushAll(&burst);
    }
  });
  producer.join();
  q.Close();
  consumer.join();
  sampling.store(false, std::memory_order_relaxed);
  sampler.join();

  EXPECT_EQ(consumed.load(), kBursts * 10);
  EXPECT_GE(q.high_watermark(), 1u);
  EXPECT_LE(q.high_watermark(), kCapacity);
}

TEST(BoundedQueueTest, PushAllOnClosedQueueEnqueuesNothing) {
  BoundedQueue<int> q(4);
  q.Close();
  std::vector<int> batch = {1, 2, 3};
  EXPECT_EQ(q.PushAll(&batch), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(q.TryPop(), std::nullopt);
}

TEST(BoundedQueueTest, PopBatchKeepsFifoOrderAndHonoursMax) {
  BoundedQueue<int> q(16);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  q.PushAll(&items);
  std::vector<int> batch;
  batch.reserve(3);
  EXPECT_EQ(q.PopBatch(&batch, 3, /*wait=*/false), 3u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.PopBatch(&batch, 3, /*wait=*/true), 3u);
  EXPECT_EQ(batch, (std::vector<int>{4, 5, 6}));  // replaced, not appended
  EXPECT_EQ(q.PopBatch(&batch, 3, /*wait=*/false), 1u);
  EXPECT_EQ(batch, (std::vector<int>{7}));
  EXPECT_EQ(batch.capacity(), 3u);  // the reserved buffer is reused
  EXPECT_EQ(q.depth(), 0u);
}

TEST(BoundedQueueTest, PopBatchAcrossTheRingWrap) {
  BoundedQueue<int> q(4);
  std::vector<int> items = {1, 2, 3};
  q.PushAll(&items);
  std::vector<int> batch;
  EXPECT_EQ(q.PopBatch(&batch, 2, /*wait=*/false), 2u);
  items = {4, 5, 6};  // slots 3, 0, 1: the ring wraps
  EXPECT_EQ(q.PushAll(&items), 3u);
  EXPECT_EQ(q.PopBatch(&batch, 8, /*wait=*/false), 4u);
  EXPECT_EQ(batch, (std::vector<int>{3, 4, 5, 6}));
}

TEST(BoundedQueueTest, NonWaitingPopBatchOnEmptyQueueReturnsZero) {
  BoundedQueue<int> q(4);
  std::vector<int> batch = {9};
  EXPECT_EQ(q.PopBatch(&batch, 4, /*wait=*/false), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(q.closed());
}

TEST(BoundedQueueTest, WaitingPopBatchTakesWhatIsQueuedWithoutFillingMax) {
  BoundedQueue<int> q(64);
  q.Push(1);
  q.Push(2);
  std::vector<int> batch;
  // Two items queued, cap 64, queue open: the pop must return at once.
  EXPECT_EQ(q.PopBatch(&batch, 64, /*wait=*/true), 2u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));

  // On an empty queue it blocks until one item arrives, then returns it.
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Push(3);
  });
  EXPECT_EQ(q.PopBatch(&batch, 64, /*wait=*/true), 1u);
  EXPECT_EQ(batch, (std::vector<int>{3}));
  producer.join();
}

TEST(BoundedQueueTest, PopBatchReturnsZeroOnlyOnceClosedAndDrained) {
  BoundedQueue<int> q(8);
  std::vector<int> items = {1, 2, 3};
  q.PushAll(&items);
  q.Close();
  std::vector<int> batch;
  EXPECT_EQ(q.PopBatch(&batch, 2, /*wait=*/true), 2u);
  EXPECT_EQ(q.PopBatch(&batch, 2, /*wait=*/true), 1u);
  EXPECT_EQ(batch, (std::vector<int>{3}));
  EXPECT_EQ(q.PopBatch(&batch, 2, /*wait=*/true), 0u);
  EXPECT_EQ(q.PopBatch(&batch, 2, /*wait=*/false), 0u);

  // A consumer blocked on an empty queue is woken by Close() with 0.
  BoundedQueue<int> empty(4);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    empty.Close();
  });
  EXPECT_EQ(empty.PopBatch(&batch, 4, /*wait=*/true), 0u);
  closer.join();
}

TEST(BoundedQueueTest, PopBatchResumesProducersBlockedOnAFullQueue) {
  // The producers block in Push and PushAll on a full queue; one PopBatch
  // that frees room for both must let both finish.
  BoundedQueue<int> q(4);
  std::vector<int> fill = {1, 2, 3, 4};
  q.PushAll(&fill);
  std::atomic<int> done{0};
  std::thread pusher([&] {
    EXPECT_TRUE(q.Push(5));
    ++done;
  });
  std::thread bulk_pusher([&] {
    std::vector<int> items = {6, 7};
    EXPECT_EQ(q.PushAll(&items), 2u);
    ++done;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(done.load(), 0);  // both blocked: the queue is full
  std::vector<int> batch;
  EXPECT_EQ(q.PopBatch(&batch, 4, /*wait=*/false), 4u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3, 4}));
  pusher.join();
  bulk_pusher.join();
  EXPECT_EQ(done.load(), 2);
  EXPECT_EQ(q.depth(), 3u);
}

TEST(BoundedQueueTest, PopBatchUnderConcurrentPushAllKeepsFifoOrder) {
  // One producer pushes 0..N-1 in bursts of varying size, one consumer pops
  // batches of varying cap, waiting and not: it must see 0..N-1 in order.
  constexpr int kTotal = 20000;
  BoundedQueue<int> q(16);
  std::thread producer([&] {
    std::vector<int> burst;
    int next = 0;
    while (next < kTotal) {
      const int n = std::min(1 + next % 23, kTotal - next);
      for (int i = 0; i < n; ++i) burst.push_back(next++);
      q.PushAll(&burst);
    }
    q.Close();
  });
  std::vector<int> popped;
  std::vector<int> batch;
  for (size_t round = 0;; ++round) {
    const size_t max = 1 + round % 7;
    if (q.PopBatch(&batch, max, /*wait=*/round % 2 == 0) == 0) {
      if (round % 2 == 0) break;  // a waiting pop: closed and drained
      continue;
    }
    EXPECT_LE(batch.size(), max);
    popped.insert(popped.end(), batch.begin(), batch.end());
  }
  producer.join();
  ASSERT_EQ(popped.size(), static_cast<size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) ASSERT_EQ(popped[i], i);
}

TEST(BoundedQueueDeathTest, ZeroCapacityAborts) {
  EXPECT_DEATH(BoundedQueue<int>(0), "FCP_CHECK");
}

}  // namespace
}  // namespace fcp
