#include "table/heap_table.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "table/heap_page.h"
#include "util/coding.h"

namespace bulkdel {

namespace {
// Header page layout offsets.
constexpr uint32_t kMagicOff = 0;
constexpr uint32_t kFirstOff = 4;
constexpr uint32_t kLastOff = 8;
constexpr uint32_t kCountOff = 12;
constexpr uint32_t kTupleSizeOff = 20;
constexpr uint32_t kNumPagesOff = 24;
constexpr uint32_t kTableMagic = 0x54424C31;  // "TBL1"
}  // namespace

Result<HeapTable> HeapTable::Create(BufferPool* pool, const Schema& schema) {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard header, pool->NewPage());
  HeapTable table(pool, &schema, header.page_id());
  StoreU32(header.data() + kMagicOff, kTableMagic);
  StoreU32(header.data() + kFirstOff, kInvalidPageId);
  StoreU32(header.data() + kLastOff, kInvalidPageId);
  StoreU64(header.data() + kCountOff, 0);
  StoreU32(header.data() + kTupleSizeOff, schema.tuple_size());
  StoreU32(header.data() + kNumPagesOff, 0);
  header.MarkDirty();
  table.extent_map_valid_ = true;  // empty map, maintained by DML from here
  return table;
}

Result<HeapTable> HeapTable::Open(BufferPool* pool, const Schema& schema,
                                  PageId header_page) {
  HeapTable table(pool, &schema, header_page);
  BULKDEL_RETURN_IF_ERROR(table.LoadMeta());
  return table;
}

Status HeapTable::LoadMeta() {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard header, pool_->FetchPage(header_page_));
  if (LoadU32(header.data() + kMagicOff) != kTableMagic) {
    return Status::Corruption("bad table header magic on page " +
                              std::to_string(header_page_));
  }
  if (LoadU32(header.data() + kTupleSizeOff) != schema_->tuple_size()) {
    return Status::Corruption("schema tuple size mismatch");
  }
  first_data_page_ = LoadU32(header.data() + kFirstOff);
  last_data_page_ = LoadU32(header.data() + kLastOff);
  tuple_count_ = LoadU64(header.data() + kCountOff);
  num_data_pages_ = LoadU32(header.data() + kNumPagesOff);
  return Status::OK();
}

Status HeapTable::FlushMeta() {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard header, pool_->FetchPage(header_page_));
  StoreU32(header.data() + kFirstOff, first_data_page_);
  StoreU32(header.data() + kLastOff, last_data_page_);
  StoreU64(header.data() + kCountOff, tuple_count_);
  StoreU32(header.data() + kNumPagesOff, num_data_pages_);
  header.MarkDirty();
  return Status::OK();
}

Status HeapTable::AppendDataPage(PageId* new_page) {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->NewPage());
  HeapPage hp(page.data(), schema_->tuple_size());
  hp.Init();
  page.MarkDirty();
  *new_page = page.page_id();
  page.Release();
  if (first_data_page_ == kInvalidPageId) {
    first_data_page_ = *new_page;
  } else {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard last, pool_->FetchPage(last_data_page_));
    HeapPage last_hp(last.data(), schema_->tuple_size());
    last_hp.set_next_page(*new_page);
    last.MarkDirty();
  }
  last_data_page_ = *new_page;
  ++num_data_pages_;
  ExtentMapAppend(*new_page, 0);
  return Status::OK();
}

void HeapTable::ExtentMapAppend(PageId page, uint32_t occupied) {
  if (!extent_map_valid_) return;
  extent_pos_[page] = extents_.size();
  extents_.push_back(Extent{page, occupied});
}

void HeapTable::BumpOccupancy(PageId page, int delta) {
  if (!extent_map_valid_) return;
  auto it = extent_pos_.find(page);
  if (it == extent_pos_.end()) {
    // A page the map never saw (e.g. a replayed pre-crash tail page): the
    // map can no longer prove coverage — fail safe and rebuild on demand.
    extent_map_valid_ = false;
    extents_.clear();
    extent_pos_.clear();
    return;
  }
  extents_[it->second].occupied =
      static_cast<uint32_t>(static_cast<int64_t>(extents_[it->second].occupied) +
                            delta);
}


Result<Rid> HeapTable::Insert(const char* tuple) {
  // Try pages known to have space first (slots freed by deletes).
  while (!pages_with_space_.empty()) {
    PageId candidate = pages_with_space_.back();
    BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(candidate));
    HeapPage hp(page.data(), schema_->tuple_size());
    int slot = hp.Insert(tuple);
    if (slot >= 0) {
      page.MarkDirty();
      if (hp.IsFull()) pages_with_space_.pop_back();
      ++tuple_count_;
      BumpOccupancy(candidate, 1);
      return Rid(candidate, static_cast<uint16_t>(slot));
    }
    pages_with_space_.pop_back();  // stale entry
  }
  // Append to the tail page, allocating a new one when full.
  if (last_data_page_ != kInvalidPageId) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(last_data_page_));
    HeapPage hp(page.data(), schema_->tuple_size());
    int slot = hp.Insert(tuple);
    if (slot >= 0) {
      page.MarkDirty();
      ++tuple_count_;
      BumpOccupancy(last_data_page_, 1);
      return Rid(last_data_page_, static_cast<uint16_t>(slot));
    }
  }
  PageId fresh;
  BULKDEL_RETURN_IF_ERROR(AppendDataPage(&fresh));
  BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(fresh));
  HeapPage hp(page.data(), schema_->tuple_size());
  int slot = hp.Insert(tuple);
  if (slot < 0) {
    return Status::Internal("fresh heap page rejected insert");
  }
  page.MarkDirty();
  ++tuple_count_;
  BumpOccupancy(fresh, 1);
  return Rid(fresh, static_cast<uint16_t>(slot));
}

Result<Rid> HeapTable::PeekInsertRid() {
  // Mirror Insert()'s choice exactly, without mutating slot state.
  while (!pages_with_space_.empty()) {
    PageId candidate = pages_with_space_.back();
    BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(candidate));
    HeapPage hp(page.data(), schema_->tuple_size());
    int slot = hp.FirstFreeSlot();
    if (slot >= 0) return Rid(candidate, static_cast<uint16_t>(slot));
    pages_with_space_.pop_back();  // stale entry, same as Insert()
  }
  if (last_data_page_ != kInvalidPageId) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(last_data_page_));
    HeapPage hp(page.data(), schema_->tuple_size());
    int slot = hp.FirstFreeSlot();
    if (slot >= 0) return Rid(last_data_page_, static_cast<uint16_t>(slot));
  }
  // Every known page is full: allocate the tail page now so the predicted
  // RID is what Insert() will use (an empty linked page is harmless if the
  // caller never follows through).
  PageId fresh;
  BULKDEL_RETURN_IF_ERROR(AppendDataPage(&fresh));
  return Rid(fresh, 0);
}

Status HeapTable::InsertAt(const Rid& rid, const char* tuple) {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(rid.page));
  HeapPage hp(page.data(), schema_->tuple_size());
  if (hp.capacity() == 0) {
    // Never-formatted page: a pre-crash tail append whose Init was lost.
    hp.Init();
    page.MarkDirty();
    if (first_data_page_ == kInvalidPageId) {
      first_data_page_ = rid.page;
      last_data_page_ = rid.page;
      ++num_data_pages_;
    } else if (rid.page != last_data_page_) {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard last,
                               pool_->FetchPage(last_data_page_));
      HeapPage last_hp(last.data(), schema_->tuple_size());
      last_hp.set_next_page(rid.page);
      last.MarkDirty();
      last_data_page_ = rid.page;
      ++num_data_pages_;
    }
  }
  if (rid.slot >= hp.capacity()) {
    return Status::Corruption("replay insert outside page capacity at " +
                              rid.ToString());
  }
  if (hp.SlotOccupied(rid.slot)) {
    if (std::memcmp(hp.TupleAt(rid.slot), tuple, schema_->tuple_size()) == 0) {
      return Status::OK();  // already applied
    }
    return Status::Corruption("replay insert collides at " + rid.ToString());
  }
  if (!hp.InsertAt(rid.slot, tuple)) {
    return Status::Corruption("replay insert failed at " + rid.ToString());
  }
  page.MarkDirty();
  ++tuple_count_;
  BumpOccupancy(rid.page, 1);
  return Status::OK();
}

Status HeapTable::Get(const Rid& rid, char* out) {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(rid.page));
  HeapPage hp(page.data(), schema_->tuple_size());
  if (rid.slot >= hp.capacity() || !hp.SlotOccupied(rid.slot)) {
    return Status::NotFound("no tuple at " + rid.ToString());
  }
  std::memcpy(out, hp.TupleAt(rid.slot), schema_->tuple_size());
  return Status::OK();
}

bool HeapTable::Exists(const Rid& rid) {
  auto page = pool_->FetchPage(rid.page);
  if (!page.ok()) return false;
  HeapPage hp(page->data(), schema_->tuple_size());
  return rid.slot < hp.capacity() && hp.SlotOccupied(rid.slot);
}

Status HeapTable::Delete(const Rid& rid, char* deleted_tuple) {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(rid.page));
  HeapPage hp(page.data(), schema_->tuple_size());
  if (rid.slot >= hp.capacity() || !hp.SlotOccupied(rid.slot)) {
    return Status::NotFound("no tuple at " + rid.ToString());
  }
  if (deleted_tuple != nullptr) {
    std::memcpy(deleted_tuple, hp.TupleAt(rid.slot), schema_->tuple_size());
  }
  bool was_full = hp.IsFull();
  hp.Delete(rid.slot);
  page.MarkDirty();
  --tuple_count_;
  BumpOccupancy(rid.page, -1);
  if (was_full) pages_with_space_.push_back(rid.page);
  return Status::OK();
}

Status HeapTable::UpdateInPlace(const Rid& rid, const char* tuple) {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(rid.page));
  HeapPage hp(page.data(), schema_->tuple_size());
  if (rid.slot >= hp.capacity() || !hp.SlotOccupied(rid.slot)) {
    return Status::NotFound("no tuple at " + rid.ToString());
  }
  std::memcpy(hp.TupleAt(rid.slot), tuple, schema_->tuple_size());
  page.MarkDirty();
  return Status::OK();
}

Status HeapTable::Scan(
    const std::function<Status(const Rid&, const char*)>& visitor) {
  PageId current = first_data_page_;
  while (current != kInvalidPageId) {
    PageId next;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(current));
      HeapPage hp(page.data(), schema_->tuple_size());
      uint16_t cap = hp.capacity();
      for (uint16_t slot = 0; slot < cap; ++slot) {
        if (!hp.SlotOccupied(slot)) continue;
        BULKDEL_RETURN_IF_ERROR(visitor(Rid(current, slot), hp.TupleAt(slot)));
      }
      next = hp.next_page();
    }
    current = next;
  }
  return Status::OK();
}

Status HeapTable::ScanDeleteIf(
    const std::function<bool(const Rid&, const char*)>& pred,
    const std::function<void(const Rid&, const char*)>& on_delete,
    uint64_t* deleted_count) {
  uint64_t deleted = 0;
  PageId current = first_data_page_;
  while (current != kInvalidPageId) {
    PageId next;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(current));
      HeapPage hp(page.data(), schema_->tuple_size());
      bool was_full = hp.IsFull();
      bool modified = false;
      uint16_t cap = hp.capacity();
      uint64_t page_deleted = 0;
      for (uint16_t slot = 0; slot < cap; ++slot) {
        if (!hp.SlotOccupied(slot)) continue;
        Rid rid(current, slot);
        const char* tuple = hp.TupleAt(slot);
        if (!pred(rid, tuple)) continue;
        if (on_delete) on_delete(rid, tuple);
        hp.Delete(slot);
        modified = true;
        ++page_deleted;
      }
      if (modified) {
        page.MarkDirty();
        deleted += page_deleted;
        BumpOccupancy(current, -static_cast<int>(page_deleted));
        if (was_full && !hp.IsFull()) pages_with_space_.push_back(current);
      }
      next = hp.next_page();
    }
    current = next;
  }
  tuple_count_ -= deleted;
  if (deleted_count != nullptr) *deleted_count = deleted;
  return Status::OK();
}

Status HeapTable::BulkDeleteSortedRids(
    const std::vector<Rid>& rids,
    const std::function<void(const Rid&, const char*)>& on_delete,
    uint64_t* deleted_count, uint64_t* missing) {
  uint64_t deleted = 0;
  uint64_t absent = 0;
  size_t i = 0;
  while (i < rids.size()) {
    PageId page_id = rids[i].page;
    BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(page_id));
    HeapPage hp(page.data(), schema_->tuple_size());
    bool was_full = hp.IsFull();
    bool modified = false;
    uint64_t page_deleted = 0;
    for (; i < rids.size() && rids[i].page == page_id; ++i) {
      uint16_t slot = rids[i].slot;
      if (slot >= hp.capacity() || !hp.SlotOccupied(slot)) {
        ++absent;
        continue;
      }
      if (on_delete) on_delete(rids[i], hp.TupleAt(slot));
      hp.Delete(slot);
      modified = true;
      ++page_deleted;
    }
    if (modified) {
      page.MarkDirty();
      deleted += page_deleted;
      BumpOccupancy(page_id, -static_cast<int>(page_deleted));
      if (was_full && !hp.IsFull()) pages_with_space_.push_back(page_id);
    }
  }
  tuple_count_ -= deleted;
  if (deleted_count != nullptr) *deleted_count = deleted;
  if (missing != nullptr) *missing = absent;
  return Status::OK();
}

Status HeapTable::EnsureExtentMap() {
  if (extent_map_valid_) return Status::OK();
  extents_.clear();
  extent_pos_.clear();
  PageId current = first_data_page_;
  while (current != kInvalidPageId) {
    PageId next;
    uint32_t live;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(current));
      HeapPage hp(page.data(), schema_->tuple_size());
      live = hp.live_count();
      next = hp.next_page();
    }
    extent_pos_[current] = extents_.size();
    extents_.push_back(Extent{current, live});
    current = next;
  }
  extent_map_valid_ = true;
  return Status::OK();
}

Status HeapTable::BulkDeleteSortedRidsExtentDrop(
    const std::vector<Rid>& rids, const std::vector<PageId>& force_drop,
    const std::function<Status(PageId, uint64_t)>& on_drop,
    const std::function<void(const Rid&, const char*)>& on_delete,
    uint64_t* deleted_count, std::vector<PageId>* dropped_out) {
  BULKDEL_RETURN_IF_ERROR(EnsureExtentMap());
  uint64_t deleted = 0;

  // Classify pages. A page drops whole when the extent map proves every one
  // of its live tuples is doomed (occupied == doomed-RID count), or when its
  // kExtentDrop record is already durable (crash resume) and it is still
  // chained. Already-detached force_drop pages are skipped outright — their
  // tuples left the durable chain before the crash.
  std::unordered_map<PageId, uint64_t> doomed;
  for (const Rid& r : rids) ++doomed[r.page];
  std::unordered_set<PageId> forced(force_drop.begin(), force_drop.end());
  std::unordered_set<PageId> drops;
  std::unordered_set<PageId> skip;
  for (const auto& [page, n] : doomed) {
    auto it = extent_pos_.find(page);
    if (it == extent_pos_.end()) {
      skip.insert(page);  // not in the chain: nothing of it is visible
      continue;
    }
    if (forced.count(page) || extents_[it->second].occupied == n) {
      drops.insert(page);
    }
  }
  for (PageId page : forced) {
    // Forced pages may carry no doomed RIDs on resume (the RID list was
    // re-derived after their index entries died): still re-drop if chained.
    if (extent_pos_.count(page)) drops.insert(page);
  }

  // Boundary pages: the ordinary one-pass read-modify-write merge.
  size_t i = 0;
  while (i < rids.size()) {
    PageId page_id = rids[i].page;
    if (drops.count(page_id) || skip.count(page_id)) {
      for (; i < rids.size() && rids[i].page == page_id; ++i) {
      }
      continue;
    }
    BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(page_id));
    HeapPage hp(page.data(), schema_->tuple_size());
    bool was_full = hp.IsFull();
    bool modified = false;
    uint64_t page_deleted = 0;
    for (; i < rids.size() && rids[i].page == page_id; ++i) {
      uint16_t slot = rids[i].slot;
      if (slot >= hp.capacity() || !hp.SlotOccupied(slot)) continue;
      if (on_delete) on_delete(rids[i], hp.TupleAt(slot));
      hp.Delete(slot);
      modified = true;
      ++page_deleted;
    }
    if (modified) {
      page.MarkDirty();
      deleted += page_deleted;
      BumpOccupancy(page_id, -static_cast<int>(page_deleted));
      if (was_full && !hp.IsFull()) pages_with_space_.push_back(page_id);
    }
  }

  if (!drops.empty()) {
    // Log every drop first (record-before-mutation), then splice: a crash
    // between record and splice leaves the page chained, and the resume pass
    // re-drops it idempotently via force_drop.
    for (const Extent& e : extents_) {
      if (!drops.count(e.page)) continue;
      BULKDEL_RETURN_IF_ERROR(on_drop(e.page, e.occupied));
      if (dropped_out != nullptr) dropped_out->push_back(e.page);
      deleted += e.occupied;
    }
    // Splice the chain around the dropped runs, touching only the kept
    // predecessor of each run — never the dropped pages themselves.
    std::vector<Extent> kept;
    kept.reserve(extents_.size() - drops.size());
    for (const Extent& e : extents_) {
      if (!drops.count(e.page)) kept.push_back(e);
    }
    for (size_t j = 0; j < kept.size(); ++j) {
      PageId want_next =
          j + 1 < kept.size() ? kept[j + 1].page : kInvalidPageId;
      size_t old_pos = extent_pos_[kept[j].page];
      PageId old_next = old_pos + 1 < extents_.size()
                            ? extents_[old_pos + 1].page
                            : kInvalidPageId;
      if (old_next == want_next) continue;
      BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(kept[j].page));
      HeapPage hp(page.data(), schema_->tuple_size());
      hp.set_next_page(want_next);
      page.MarkDirty();
    }
    first_data_page_ = kept.empty() ? kInvalidPageId : kept.front().page;
    last_data_page_ = kept.empty() ? kInvalidPageId : kept.back().page;
    num_data_pages_ -= static_cast<uint32_t>(drops.size());
    pages_with_space_.erase(
        std::remove_if(pages_with_space_.begin(), pages_with_space_.end(),
                       [&](PageId p) { return drops.count(p) > 0; }),
        pages_with_space_.end());
    extents_ = std::move(kept);
    extent_pos_.clear();
    for (size_t j = 0; j < extents_.size(); ++j) {
      extent_pos_[extents_[j].page] = j;
    }
  }

  tuple_count_ -= deleted;
  if (deleted_count != nullptr) *deleted_count = deleted;
  return Status::OK();
}

Status HeapTable::FreeDroppedPages(const std::vector<PageId>& pages) {
  for (PageId page : pages) {
    BULKDEL_RETURN_IF_ERROR(pool_->DeletePage(page));
  }
  return Status::OK();
}

Status HeapTable::ScrubDeadSlots(const std::vector<Rid>& rids,
                                 const std::unordered_set<PageId>& skip_pages) {
  const uint32_t tuple_size = schema_->tuple_size();
  for (size_t i = 0; i < rids.size();) {
    PageId pid = rids[i].page;
    size_t j = i;
    while (j < rids.size() && rids[j].page == pid) ++j;
    if (skip_pages.count(pid) == 0) {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(pid));
      HeapPage hp(page.data(), tuple_size);
      bool dirtied = false;
      for (size_t k = i; k < j; ++k) {
        uint16_t slot = rids[k].slot;
        // Occupied slots are skipped: the RID may have been reused by an
        // insert since the delete (side-file / updater interleaving).
        if (slot >= hp.capacity() || hp.SlotOccupied(slot)) continue;
        std::memset(hp.TupleAt(slot), 0, tuple_size);
        dirtied = true;
      }
      if (dirtied) page.MarkDirty();
    }
    i = j;
  }
  return Status::OK();
}

Status HeapTable::RecountFromScan() {
  uint64_t count = 0;
  BULKDEL_RETURN_IF_ERROR(Scan([&](const Rid&, const char*) {
    ++count;
    return Status::OK();
  }));
  tuple_count_ = count;
  return FlushMeta();
}

Status HeapTable::Drop() {
  PageId current = first_data_page_;
  while (current != kInvalidPageId) {
    PageId next;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->FetchPage(current));
      HeapPage hp(page.data(), schema_->tuple_size());
      next = hp.next_page();
    }
    BULKDEL_RETURN_IF_ERROR(pool_->DeletePage(current));
    current = next;
  }
  BULKDEL_RETURN_IF_ERROR(pool_->DeletePage(header_page_));
  first_data_page_ = last_data_page_ = kInvalidPageId;
  tuple_count_ = 0;
  num_data_pages_ = 0;
  pages_with_space_.clear();
  extents_.clear();
  extent_pos_.clear();
  extent_map_valid_ = true;  // valid empty map: the table is gone
  return Status::OK();
}

}  // namespace bulkdel
