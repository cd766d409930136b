#include "storage/slotted_page.h"

#include <cstring>

#include "common/bytes.h"

namespace qbism::storage {

namespace {

uint16_t SlotOffset(const uint8_t* page, SlotId slot) {
  return LoadLE16(page + SlottedPage::kHeaderSize +
                  slot * SlottedPage::kSlotSize);
}
uint16_t SlotLength(const uint8_t* page, SlotId slot) {
  return LoadLE16(page + SlottedPage::kHeaderSize +
                  slot * SlottedPage::kSlotSize + 2);
}

}  // namespace

void SlottedPage::Init(uint8_t* page) {
  std::memset(page, 0, kPageSize);
  StoreLE16(page, 0);                                     // slot_count
  StoreLE16(page + 2, static_cast<uint16_t>(kPageSize));  // free_end
  StoreLE64(page + 4, 0);  // next_page (0 = none)
}

uint16_t SlottedPage::SlotCount(const uint8_t* page) { return LoadLE16(page); }

uint64_t SlottedPage::NextPage(const uint8_t* page) {
  return LoadLE64(page + 4);
}

void SlottedPage::SetNextPage(uint8_t* page, uint64_t next) {
  StoreLE64(page + 4, next);
}

uint64_t SlottedPage::FreeSpace(const uint8_t* page) {
  uint16_t slot_count = LoadLE16(page);
  uint16_t free_end = LoadLE16(page + 2);
  uint64_t slots_end = kHeaderSize + static_cast<uint64_t>(slot_count) * kSlotSize;
  if (free_end < slots_end + kSlotSize) return 0;
  return free_end - slots_end - kSlotSize;
}

Result<SlotId> SlottedPage::Insert(uint8_t* page, const uint8_t* data,
                                   uint16_t length) {
  if (length >= kTombstone) {
    return Status::InvalidArgument("SlottedPage: record too long");
  }
  if (FreeSpace(page) < length) {
    return Status::OutOfRange("SlottedPage: page full");
  }
  uint16_t slot_count = LoadLE16(page);
  uint16_t free_end = LoadLE16(page + 2);
  uint16_t offset = static_cast<uint16_t>(free_end - length);
  std::memcpy(page + offset, data, length);
  uint8_t* slot_entry = page + kHeaderSize + slot_count * kSlotSize;
  StoreLE16(slot_entry, offset);
  StoreLE16(slot_entry + 2, length);
  StoreLE16(page, static_cast<uint16_t>(slot_count + 1));
  StoreLE16(page + 2, offset);
  return static_cast<SlotId>(slot_count);
}

Result<std::vector<uint8_t>> SlottedPage::Read(const uint8_t* page,
                                               SlotId slot) {
  if (slot >= LoadLE16(page)) {
    return Status::NotFound("SlottedPage: bad slot id");
  }
  uint16_t length = SlotLength(page, slot);
  if (length == kTombstone) {
    return Status::NotFound("SlottedPage: record deleted");
  }
  uint16_t offset = SlotOffset(page, slot);
  std::vector<uint8_t> out(length);
  std::memcpy(out.data(), page + offset, length);
  return out;
}

Result<std::pair<const uint8_t*, uint16_t>> SlottedPage::ReadView(
    const uint8_t* page, SlotId slot) {
  if (slot >= LoadLE16(page)) {
    return Status::NotFound("SlottedPage: bad slot id");
  }
  uint16_t length = SlotLength(page, slot);
  if (length == kTombstone) {
    return Status::NotFound("SlottedPage: record deleted");
  }
  return std::make_pair(page + SlotOffset(page, slot), length);
}

Status SlottedPage::Erase(uint8_t* page, SlotId slot) {
  if (slot >= LoadLE16(page)) {
    return Status::NotFound("SlottedPage: bad slot id");
  }
  uint8_t* slot_entry = page + kHeaderSize + slot * kSlotSize;
  StoreLE16(slot_entry + 2, kTombstone);
  return Status::OK();
}

bool SlottedPage::IsLive(const uint8_t* page, SlotId slot) {
  return slot < LoadLE16(page) && SlotLength(page, slot) != kTombstone;
}

}  // namespace qbism::storage
