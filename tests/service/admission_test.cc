#include "service/admission.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qbism::service {
namespace {

using Clock = TenantGovernor::Clock;

TenantQuota Tenant(double weight, int max_waiting = 64) {
  TenantQuota t;
  t.weight = weight;
  t.max_waiting = max_waiting;
  return t;
}

void WaitUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 2000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

TEST(AdmissionTest, SlotCapsFollowWeights) {
  // 8 slots split 2:1:1 -> 4/2/2.
  TenantGovernor governor({Tenant(2.0), Tenant(1.0), Tenant(1.0)},
                          /*total_slots=*/8);
  EXPECT_EQ(governor.slot_cap(0), 4);
  EXPECT_EQ(governor.slot_cap(1), 2);
  EXPECT_EQ(governor.slot_cap(2), 2);
}

TEST(AdmissionTest, EveryTenantGetsAtLeastOneSlot) {
  // A tiny weight still reserves one slot: a greedy tenant can never
  // starve another tenant completely.
  TenantGovernor governor({Tenant(100.0), Tenant(0.01)}, /*total_slots=*/4);
  EXPECT_GE(governor.slot_cap(1), 1);
  EXPECT_LE(governor.slot_cap(0), 4);
}

TEST(AdmissionTest, AdmitUpToCapThenRejectBeyondWaitingQuota) {
  TenantGovernor governor({Tenant(1.0, /*max_waiting=*/1)},
                          /*total_slots=*/2);
  ASSERT_EQ(governor.slot_cap(0), 2);
  auto s1 = governor.Admit(0);
  auto s2 = governor.Admit(0);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());

  // Cap reached: the next request waits...
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto s3 = governor.Admit(0);
    if (s3.ok()) admitted.store(true);
  });
  WaitUntil([&] { return governor.tenant_stats(0).waiting == 1; });

  // ...and with the waiting line full, a fourth rejects immediately.
  auto s4 = governor.Admit(0);
  ASSERT_FALSE(s4.ok());
  EXPECT_TRUE(s4.status().IsResourceExhausted());
  EXPECT_EQ(governor.tenant_stats(0).rejected_quota, 1u);

  // Releasing a slot admits the waiter.
  s1->Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  TenantAdmissionStats stats = governor.tenant_stats(0);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.waited, 1u);
  // The waiter's slot released when its thread exited; only s2 remains.
  EXPECT_EQ(stats.inflight, 1);
}

TEST(AdmissionTest, UnknownTenantRejected) {
  TenantGovernor governor({Tenant(1.0)}, 2);
  EXPECT_FALSE(governor.Admit(-1).ok());
  EXPECT_FALSE(governor.Admit(1).ok());
}

TEST(AdmissionTest, UnknownTenantStatsAreZeroed) {
  TenantGovernor governor({Tenant(1.0), Tenant(1.0)}, 2);
  auto slot = governor.Admit(1);
  ASSERT_TRUE(slot.ok());
  for (int tenant : {-1, 2}) {
    TenantAdmissionStats stats = governor.tenant_stats(tenant);
    EXPECT_EQ(stats.admitted, 0u) << tenant;
    EXPECT_EQ(stats.inflight, 0) << tenant;
    EXPECT_EQ(stats.slot_cap, 0) << tenant;
  }
  EXPECT_EQ(governor.tenant_stats(1).admitted, 1u);
}

TEST(AdmissionTest, SlotReleaseOnDestruction) {
  TenantGovernor governor({Tenant(1.0)}, 1);
  {
    auto slot = governor.Admit(0);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(governor.total_inflight(), 1);
  }
  EXPECT_EQ(governor.total_inflight(), 0);
  // Double release is harmless.
  auto slot = governor.Admit(0);
  ASSERT_TRUE(slot.ok());
  slot->Release();
  slot->Release();
  EXPECT_EQ(governor.total_inflight(), 0);
}

TEST(AdmissionTest, CloseWakesAllWaiters) {
  TenantGovernor governor({Tenant(1.0, /*max_waiting=*/8)}, 1);
  auto held = governor.Admit(0);
  ASSERT_TRUE(held.ok());
  std::atomic<int> cancelled{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      auto slot = governor.Admit(0);
      if (!slot.ok() && slot.status().IsCancelled()) cancelled.fetch_add(1);
    });
  }
  WaitUntil([&] { return governor.tenant_stats(0).waiting == 4; });
  governor.Close();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(cancelled.load(), 4);
  EXPECT_EQ(governor.tenant_stats(0).waiting, 0);
  // Admissions after Close fail fast, and a held slot still releases.
  EXPECT_TRUE(governor.Admit(0).status().IsCancelled());
  held->Release();
  EXPECT_EQ(governor.total_inflight(), 0);
}

// The fair-share property the E19 bench demonstrates end to end, in
// miniature: a greedy tenant hammering the governor from many threads
// can never hold more than its cap, so the victim's slots stay free.
TEST(AdmissionTest, GreedyTenantCannotExceedItsCap) {
  TenantGovernor governor({Tenant(1.0, /*max_waiting=*/4), Tenant(1.0)},
                          /*total_slots=*/4);
  ASSERT_EQ(governor.slot_cap(0), 2);

  std::atomic<bool> stop{false};
  std::atomic<int> max_seen{0};
  std::vector<std::thread> greedy;
  for (int i = 0; i < 8; ++i) {
    greedy.emplace_back([&] {
      while (!stop.load()) {
        auto slot = governor.Admit(0);
        if (slot.ok()) {
          int inflight = governor.tenant_stats(0).inflight;
          int seen = max_seen.load();
          while (inflight > seen &&
                 !max_seen.compare_exchange_weak(seen, inflight)) {
          }
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    });
  }
  // While the greedy tenant churns, the victim always admits instantly.
  for (int i = 0; i < 50; ++i) {
    auto slot = governor.Admit(1);
    ASSERT_TRUE(slot.ok());
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  stop.store(true);
  governor.Close();
  for (auto& t : greedy) t.join();
  EXPECT_LE(max_seen.load(), governor.slot_cap(0));
  EXPECT_EQ(governor.tenant_stats(1).waited, 0u);
}

// The slot count bounds every tenant together: five tenants each
// entitled to one slot still share four.
TEST(AdmissionTest, TotalSlotsBoundAllTenants) {
  TenantGovernor governor(std::vector<TenantQuota>(5, Tenant(1.0)),
                          /*total_slots=*/4);
  std::vector<AdmissionSlot> held;
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(governor.slot_cap(t), 1);
    auto slot = governor.Admit(t);
    ASSERT_TRUE(slot.ok());
    held.push_back(std::move(*slot));
  }
  // Tenant 4 is under its own cap but every slot is taken: it waits.
  auto expired =
      governor.Admit(4, Clock::now() + std::chrono::milliseconds(20));
  EXPECT_TRUE(expired.status().IsDeadlineExceeded());
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto slot = governor.Admit(4);
    EXPECT_EQ(governor.total_inflight(), 4);
    admitted.store(slot.ok());
  });
  WaitUntil([&] { return governor.tenant_stats(4).waiting == 1; });
  EXPECT_FALSE(admitted.load());
  held[0].Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

// A thread that frees the only slot and asks again at once must queue
// behind the thread already waiting, not barge past it.
TEST(AdmissionTest, ReleasedSlotGoesToTheWaiterNotABarger) {
  for (int trial = 0; trial < 20; ++trial) {
    TenantGovernor governor({Tenant(1.0)}, /*total_slots=*/1);
    auto held = governor.Admit(0);
    ASSERT_TRUE(held.ok());
    std::mutex mu;
    std::vector<char> order;
    std::thread waiter([&] {
      auto slot = governor.Admit(0);
      ASSERT_TRUE(slot.ok());
      std::lock_guard<std::mutex> lock(mu);
      order.push_back('w');
    });
    WaitUntil([&] { return governor.tenant_stats(0).waiting == 1; });
    held->Release();
    auto again = governor.Admit(0);  // waits for the waiter's release
    ASSERT_TRUE(again.ok());
    {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back('b');
    }
    waiter.join();
    ASSERT_EQ(order, (std::vector<char>{'w', 'b'})) << "trial " << trial;
  }
}

TEST(AdmissionTest, WaitersAreAdmittedInArrivalOrder) {
  TenantGovernor governor({Tenant(1.0)}, /*total_slots=*/1);
  auto held = governor.Admit(0);
  ASSERT_TRUE(held.ok());
  std::mutex mu;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      auto slot = governor.Admit(0);
      ASSERT_TRUE(slot.ok());
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
    // Let waiter i join the line before waiter i+1 arrives.
    WaitUntil([&] { return governor.tenant_stats(0).waiting == i + 1; });
  }
  held->Release();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(AdmissionTest, ExpiredHeadWaiterUnblocksTheNext) {
  TenantGovernor governor({Tenant(1.0)}, /*total_slots=*/1);
  auto held = governor.Admit(0);
  ASSERT_TRUE(held.ok());
  Status head_status;
  std::thread head([&] {
    head_status =
        governor.Admit(0, Clock::now() + std::chrono::milliseconds(30))
            .status();
  });
  WaitUntil([&] { return governor.tenant_stats(0).waiting == 1; });
  std::atomic<bool> next_admitted{false};
  std::thread next([&] { next_admitted.store(governor.Admit(0).ok()); });
  WaitUntil([&] { return governor.tenant_stats(0).waiting == 2; });

  head.join();  // the head gives up on its deadline...
  EXPECT_TRUE(head_status.IsDeadlineExceeded()) << head_status.ToString();
  EXPECT_EQ(governor.tenant_stats(0).waiting, 1);
  held->Release();  // ...and the freed slot goes to the waiter behind it
  next.join();
  EXPECT_TRUE(next_admitted.load());
  EXPECT_EQ(governor.tenant_stats(0).admitted, 2u);
}

}  // namespace
}  // namespace qbism::service
