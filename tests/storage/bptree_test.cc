#include "storage/bptree.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace qbism::storage {
namespace {

class BPlusTreeTest : public ::testing::Test {
 protected:
  BPlusTreeTest()
      : device_(1 << 14), pool_(&device_, 64), allocator_(1 << 14),
        tree_(BPlusTree::Create(&pool_, &allocator_).MoveValue()) {}

  DiskDevice device_;
  BufferPool pool_;
  PageAllocator allocator_;
  BPlusTree tree_;
};

RecordId Rid(uint64_t n) { return RecordId{n, static_cast<SlotId>(n % 7)}; }

TEST_F(BPlusTreeTest, EmptyTree) {
  EXPECT_TRUE(tree_.Find(42).value().empty());
  EXPECT_EQ(tree_.Size().value(), 0u);
  EXPECT_EQ(tree_.Height().value(), 1);
}

TEST_F(BPlusTreeTest, SingleInsertFind) {
  ASSERT_TRUE(tree_.Insert(5, Rid(100)).ok());
  auto found = tree_.Find(5).MoveValue();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], Rid(100));
  EXPECT_TRUE(tree_.Find(4).value().empty());
  EXPECT_TRUE(tree_.Find(6).value().empty());
}

TEST_F(BPlusTreeTest, DuplicateKeys) {
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree_.Insert(7, Rid(i)).ok());
  }
  ASSERT_TRUE(tree_.Insert(8, Rid(99)).ok());
  EXPECT_EQ(tree_.Find(7).value().size(), 10u);
  EXPECT_EQ(tree_.Find(8).value().size(), 1u);
  EXPECT_EQ(tree_.Size().value(), 11u);
}

TEST_F(BPlusTreeTest, NegativeAndExtremeKeys) {
  ASSERT_TRUE(tree_.Insert(-1000, Rid(1)).ok());
  ASSERT_TRUE(tree_.Insert(INT64_MIN, Rid(2)).ok());
  ASSERT_TRUE(tree_.Insert(INT64_MAX, Rid(3)).ok());
  ASSERT_TRUE(tree_.Insert(0, Rid(4)).ok());
  EXPECT_EQ(tree_.Find(INT64_MIN).value().size(), 1u);
  EXPECT_EQ(tree_.Find(INT64_MAX).value().size(), 1u);
  auto all = tree_.FindRange(INT64_MIN, INT64_MAX).MoveValue();
  EXPECT_EQ(all.size(), 4u);
}

TEST_F(BPlusTreeTest, SequentialInsertsForceSplits) {
  const int n = 5000;  // leaf capacity is 226: forces height >= 2
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_.Insert(i, Rid(static_cast<uint64_t>(i))).ok());
  }
  EXPECT_EQ(tree_.Size().value(), static_cast<uint64_t>(n));
  EXPECT_GE(tree_.Height().value(), 2);
  for (int i = 0; i < n; i += 37) {
    auto found = tree_.Find(i).MoveValue();
    ASSERT_EQ(found.size(), 1u) << i;
    EXPECT_EQ(found[0], Rid(static_cast<uint64_t>(i)));
  }
}

TEST_F(BPlusTreeTest, RandomInsertsMatchReference) {
  Rng rng(99);
  std::multimap<int64_t, uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    int64_t key = static_cast<int64_t>(rng.NextBounded(3000)) - 1500;
    reference.emplace(key, static_cast<uint64_t>(i));
    ASSERT_TRUE(tree_.Insert(key, Rid(static_cast<uint64_t>(i))).ok());
  }
  EXPECT_EQ(tree_.Size().value(), reference.size());
  EXPECT_GE(tree_.Height().value(), 2);
  // Point lookups across the key space.
  for (int64_t key = -1500; key <= 1500; key += 111) {
    auto found = tree_.Find(key).MoveValue();
    std::multiset<uint64_t> got;
    for (const RecordId& rid : found) got.insert(rid.page_no);
    std::multiset<uint64_t> expected;
    auto [lo, hi] = reference.equal_range(key);
    for (auto it = lo; it != hi; ++it) expected.insert(it->second);
    EXPECT_EQ(got, expected) << key;
  }
}

TEST_F(BPlusTreeTest, RemoveTakesOneExactPair) {
  ASSERT_TRUE(tree_.Insert(7, Rid(1)).ok());
  ASSERT_TRUE(tree_.Insert(7, Rid(2)).ok());
  ASSERT_TRUE(tree_.Insert(7, Rid(2)).ok());  // the same pair twice
  ASSERT_TRUE(tree_.Insert(8, Rid(1)).ok());
  ASSERT_TRUE(tree_.Remove(7, Rid(2)).ok());
  EXPECT_EQ(tree_.Find(7).value(), (std::vector<RecordId>{Rid(1), Rid(2)}));
  ASSERT_TRUE(tree_.Remove(7, Rid(2)).ok());
  EXPECT_TRUE(tree_.Remove(7, Rid(2)).IsNotFound());
  EXPECT_TRUE(tree_.Remove(9, Rid(1)).IsNotFound());
  EXPECT_TRUE(tree_.Remove(8, Rid(2)).IsNotFound());  // key there, rid not
  EXPECT_EQ(tree_.Find(7).value(), std::vector<RecordId>{Rid(1)});
  EXPECT_EQ(tree_.Find(8).value(), std::vector<RecordId>{Rid(1)});
  EXPECT_EQ(tree_.Size().value(), 2u);
}

TEST_F(BPlusTreeTest, RemoveFindsDuplicatesAcrossLeavesInAnyRidOrder) {
  // 2,000 copies of one key span ~10 leaves; inserting them in shuffled
  // rid order leaves the rids sorted only within each leaf, so removal
  // must walk the whole run of leaves. Removing every other entry, then
  // the rest, must leave exactly the reference and finally nothing.
  Rng rng(7);
  std::vector<uint64_t> order(2000);
  for (uint64_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  for (uint64_t n : order) ASSERT_TRUE(tree_.Insert(42, Rid(n)).ok());
  ASSERT_TRUE(tree_.Insert(41, Rid(5000)).ok());
  ASSERT_TRUE(tree_.Insert(43, Rid(5001)).ok());
  ASSERT_GE(tree_.Height().value(), 2);
  std::multiset<uint64_t> expected(order.begin(), order.end());
  for (size_t i = 0; i < order.size(); i += 2) {
    ASSERT_TRUE(tree_.Remove(42, Rid(order[i])).ok()) << order[i];
    expected.erase(expected.find(order[i]));
  }
  std::multiset<uint64_t> got;
  for (const RecordId& rid : tree_.Find(42).MoveValue()) {
    got.insert(rid.page_no);
  }
  EXPECT_EQ(got, expected);
  for (size_t i = 1; i < order.size(); i += 2) {
    ASSERT_TRUE(tree_.Remove(42, Rid(order[i])).ok()) << order[i];
  }
  EXPECT_TRUE(tree_.Find(42).value().empty());
  EXPECT_EQ(tree_.FindRange(41, 43).value(),
            (std::vector<RecordId>{Rid(5000), Rid(5001)}));
  // Emptied leaves stay in the chain; inserts still land correctly.
  ASSERT_TRUE(tree_.Insert(42, Rid(9)).ok());
  EXPECT_EQ(tree_.Find(42).value(), std::vector<RecordId>{Rid(9)});
  EXPECT_EQ(tree_.Size().value(), 3u);
}

TEST_F(BPlusTreeTest, RangeQueries) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree_.Insert(i * 2, Rid(static_cast<uint64_t>(i))).ok());
  }
  auto range = tree_.FindRange(100, 200).MoveValue();
  EXPECT_EQ(range.size(), 51u);  // even keys 100..200 inclusive
  EXPECT_TRUE(tree_.FindRange(1999, 1999).value().empty());  // odd: absent
  EXPECT_TRUE(tree_.FindRange(500, 400).value().empty());    // inverted
  EXPECT_EQ(tree_.FindRange(-100, 0).value().size(), 1u);
  EXPECT_EQ(tree_.FindRange(0, 5000).value().size(), 1000u);
}

TEST_F(BPlusTreeTest, ScanInKeyOrder) {
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        tree_.Insert(static_cast<int64_t>(rng.NextBounded(100000)),
                     Rid(static_cast<uint64_t>(i)))
            .ok());
  }
  int64_t last = INT64_MIN;
  uint64_t count = 0;
  ASSERT_TRUE(tree_
                  .Scan([&](int64_t key, const RecordId&) {
                    EXPECT_GE(key, last);
                    last = key;
                    ++count;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(count, 3000u);
}

TEST_F(BPlusTreeTest, ScanEarlyStop) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_.Insert(i, Rid(static_cast<uint64_t>(i))).ok());
  }
  uint64_t visited = 0;
  ASSERT_TRUE(tree_
                  .Scan([&](int64_t, const RecordId&) {
                    return ++visited < 10;
                  })
                  .ok());
  EXPECT_EQ(visited, 10u);
}

TEST_F(BPlusTreeTest, LookupsTouchFewPagesUnderColdPool) {
  const int n = 30000;  // height 3
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_.Insert(i, Rid(static_cast<uint64_t>(i))).ok());
  }
  int height = tree_.Height().MoveValue();
  EXPECT_GE(height, 2);
  ASSERT_TRUE(pool_.FlushAll().ok());
  device_.ResetStats();
  // One point lookup reads at most `height` pages from a cold cache
  // (the pool has been churned by the inserts, but the device counter
  // only grows by the miss count).
  uint64_t before = device_.stats().pages_read;
  ASSERT_EQ(tree_.Find(n / 2 + 1).value().size(), 1u);
  uint64_t touched = device_.stats().pages_read - before;
  // Root-to-leaf path plus possibly one neighbouring leaf (the range
  // scan peeks right when the key is a leaf's maximum).
  EXPECT_LE(touched, static_cast<uint64_t>(height) + 1);
}

TEST_F(BPlusTreeTest, SurvivesTinyBufferPool) {
  DiskDevice device(1 << 14);
  BufferPool pool(&device, 3);  // pathological: 3 frames
  PageAllocator allocator(1 << 14);
  BPlusTree tree = BPlusTree::Create(&pool, &allocator).MoveValue();
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(tree.Insert(i % 500, Rid(static_cast<uint64_t>(i))).ok());
  }
  EXPECT_EQ(tree.Size().value(), 4000u);
  EXPECT_EQ(tree.Find(250).value().size(), 8u);
}

}  // namespace
}  // namespace qbism::storage
