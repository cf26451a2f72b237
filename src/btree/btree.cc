#include "btree/btree.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace bulkdel {

namespace {
constexpr uint32_t kMagicOff = 0;
constexpr uint32_t kRootOff = 4;
constexpr uint32_t kHeightOff = 8;
constexpr uint32_t kCountOff = 12;
constexpr uint32_t kLeavesOff = 20;
constexpr uint32_t kInnerOff = 24;
constexpr uint32_t kBtreeMagic = 0x42545231;  // "BTR1"

constexpr int64_t kMinKey = std::numeric_limits<int64_t>::min();
}  // namespace

uint16_t BTree::leaf_capacity() const {
  uint16_t cap = BTreeNode::LeafPageCapacity();
  if (options_.max_leaf_entries > 0 && options_.max_leaf_entries < cap) {
    cap = options_.max_leaf_entries;
  }
  return cap;
}

uint16_t BTree::inner_capacity() const {
  uint16_t cap = BTreeNode::InnerPageCapacity();
  if (options_.max_inner_entries > 0 && options_.max_inner_entries < cap) {
    cap = options_.max_inner_entries;
  }
  return cap;
}

Result<BTree> BTree::Create(BufferPool* pool, IndexOptions options) {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard meta, pool->NewPage());
  BTree tree(pool, meta.page_id(), options);
  BULKDEL_ASSIGN_OR_RETURN(PageId root, tree.NewNode(0));
  tree.root_ = root;
  tree.height_ = 1;
  StoreU32(meta.data() + kMagicOff, kBtreeMagic);
  meta.MarkDirty();
  meta.Release();
  BULKDEL_RETURN_IF_ERROR(tree.FlushMeta());
  return tree;
}

Result<BTree> BTree::Open(BufferPool* pool, PageId meta_page,
                          IndexOptions options) {
  BTree tree(pool, meta_page, options);
  BULKDEL_RETURN_IF_ERROR(tree.LoadMeta());
  return tree;
}

Status BTree::LoadMeta() {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard meta, pool_->FetchPage(meta_page_));
  if (LoadU32(meta.data() + kMagicOff) != kBtreeMagic) {
    return Status::Corruption("bad btree meta magic on page " +
                              std::to_string(meta_page_));
  }
  root_ = LoadU32(meta.data() + kRootOff);
  height_ = static_cast<int>(LoadU32(meta.data() + kHeightOff));
  entry_count_ = LoadU64(meta.data() + kCountOff);
  num_leaves_ = LoadU32(meta.data() + kLeavesOff);
  num_inner_ = LoadU32(meta.data() + kInnerOff);
  return Status::OK();
}

Status BTree::FlushMeta() {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard meta, pool_->FetchPage(meta_page_));
  StoreU32(meta.data() + kMagicOff, kBtreeMagic);
  StoreU32(meta.data() + kRootOff, root_);
  StoreU32(meta.data() + kHeightOff, static_cast<uint32_t>(height_));
  StoreU64(meta.data() + kCountOff, entry_count_);
  StoreU32(meta.data() + kLeavesOff, num_leaves_);
  StoreU32(meta.data() + kInnerOff, num_inner_);
  meta.MarkDirty();
  return Status::OK();
}

Result<PageId> BTree::NewNode(uint8_t level) {
  BULKDEL_ASSIGN_OR_RETURN(PageGuard page, pool_->NewPage());
  BTreeNode node(page.data());
  node.Init(level);
  page.MarkDirty();
  if (level == 0) {
    ++num_leaves_;
  } else {
    ++num_inner_;
  }
  return page.page_id();
}

Status BTree::FreeNode(PageId page) {
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page));
    BTreeNode node(guard.data());
    if (node.is_leaf()) {
      --num_leaves_;
    } else {
      --num_inner_;
    }
  }
  if (deferred_frees_ != nullptr) {
    // Deferred reclamation (see BulkDeleteRange): the page stays allocated —
    // and any cached frame stays valid — until the caller frees it after the
    // statement's End record is durable.
    deferred_frees_->push_back(page);
    return Status::OK();
  }
  return pool_->DeletePage(page);
}

Result<PageId> BTree::DescendToLeaf(const KeyRid& probe) {
  PageId cur = root_;
  while (true) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
    BTreeNode node(guard.data());
    if (node.is_leaf()) return cur;
    cur = node.Child(node.ChildIndexFor(probe));
  }
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

Status BTree::Insert(int64_t key, const Rid& rid, uint16_t flags) {
  BULKDEL_ASSIGN_OR_RETURN(std::optional<Split> split,
                           InsertRec(root_, key, rid, flags));
  if (split.has_value()) {
    // Grow the tree: new root above the old one.
    uint8_t old_level;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard old_root, pool_->FetchPage(root_));
      old_level = BTreeNode(old_root.data()).level();
    }
    BULKDEL_ASSIGN_OR_RETURN(PageId new_root,
                             NewNode(static_cast<uint8_t>(old_level + 1)));
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(new_root));
    BTreeNode node(guard.data());
    node.SetChild(0, root_);
    node.InnerInsertAt(0, split->sep, split->right);
    guard.MarkDirty();
    root_ = new_root;
    ++height_;
  }
  ++entry_count_;
  return Status::OK();
}

Result<std::optional<BTree::Split>> BTree::InsertRec(PageId node_page,
                                                     int64_t key,
                                                     const Rid& rid,
                                                     uint16_t flags) {
  KeyRid probe(key, rid);
  BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(node_page));
  BTreeNode node(guard.data());

  if (node.is_leaf()) {
    // Reject duplicates: exact composite always, same key if unique.
    uint16_t pos = node.LeafLowerBound(probe);
    if (pos < node.count() && node.LeafEntryAt(pos) == probe) {
      return Status::AlreadyExists("entry (" + std::to_string(key) + ", " +
                                   rid.ToString() + ") already indexed");
    }
    if (options_.unique) {
      uint16_t kpos = node.LeafLowerBound(key);
      if (kpos < node.count() && node.LeafKey(kpos) == key) {
        return Status::AlreadyExists("unique key " + std::to_string(key) +
                                     " already indexed");
      }
      // The equal key could sit at the tail of the left sibling; the composite
      // descent lands here only if (key, rid) > that entry, i.e. same key.
      if (kpos == 0 && node.left_sibling() != kInvalidPageId) {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard left,
                                 pool_->FetchPage(node.left_sibling()));
        BTreeNode lnode(left.data());
        if (lnode.count() > 0 && lnode.LeafKey(lnode.count() - 1) == key) {
          return Status::AlreadyExists("unique key " + std::to_string(key) +
                                       " already indexed");
        }
      }
      // ... or at the head of the right sibling (stale separators after
      // deletes can route an equal-key probe one leaf to the left).
      if (kpos == node.count() && node.right_sibling() != kInvalidPageId) {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard right,
                                 pool_->FetchPage(node.right_sibling()));
        BTreeNode rnode(right.data());
        if (rnode.count() > 0 && rnode.LeafKey(0) == key) {
          return Status::AlreadyExists("unique key " + std::to_string(key) +
                                       " already indexed");
        }
      }
    }
    if (node.count() < leaf_capacity()) {
      node.LeafInsertAt(node.LeafLowerBound(probe), key, rid, flags);
      guard.MarkDirty();
      return std::optional<Split>();
    }
    Split split;
    BULKDEL_RETURN_IF_ERROR(SplitLeaf(guard, &split));
    // `guard` still pins the left node; pick the side for the new entry.
    if (probe <= split.sep) {
      node.LeafInsertAt(node.LeafLowerBound(probe), key, rid, flags);
      guard.MarkDirty();
    } else {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard right, pool_->FetchPage(split.right));
      BTreeNode rnode(right.data());
      rnode.LeafInsertAt(rnode.LeafLowerBound(probe), key, rid, flags);
      right.MarkDirty();
    }
    return std::optional<Split>(split);
  }

  uint16_t child_idx = node.ChildIndexFor(probe);
  PageId child = node.Child(child_idx);
  guard.Release();  // keep pin depth bounded during recursion

  BULKDEL_ASSIGN_OR_RETURN(std::optional<Split> child_split,
                           InsertRec(child, key, rid, flags));
  if (!child_split.has_value()) return std::optional<Split>();

  BULKDEL_ASSIGN_OR_RETURN(PageGuard reguard, pool_->FetchPage(node_page));
  BTreeNode renode(reguard.data());
  if (renode.count() < inner_capacity()) {
    renode.InnerInsertAt(child_idx, child_split->sep, child_split->right);
    reguard.MarkDirty();
    return std::optional<Split>();
  }
  Split split;
  BULKDEL_RETURN_IF_ERROR(SplitInner(reguard, &split));
  if (child_split->sep <= split.sep) {
    renode.InnerInsertAt(renode.ChildIndexFor(child_split->sep),
                         child_split->sep, child_split->right);
    reguard.MarkDirty();
  } else {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard right, pool_->FetchPage(split.right));
    BTreeNode rnode(right.data());
    rnode.InnerInsertAt(rnode.ChildIndexFor(child_split->sep),
                        child_split->sep, child_split->right);
    right.MarkDirty();
  }
  return std::optional<Split>(split);
}

Status BTree::SplitLeaf(PageGuard& leaf_guard, Split* split) {
  BTreeNode node(leaf_guard.data());
  uint16_t n = node.count();
  uint16_t keep = n / 2;

  BULKDEL_ASSIGN_OR_RETURN(PageId right_page, NewNode(0));
  BULKDEL_ASSIGN_OR_RETURN(PageGuard right_guard, pool_->FetchPage(right_page));
  BTreeNode right(right_guard.data());
  for (uint16_t i = keep; i < n; ++i) {
    right.SetLeafEntry(i - keep, node.LeafKey(i), node.LeafRid(i),
                       node.LeafFlags(i));
  }
  right.set_count(n - keep);
  node.set_count(keep);

  // Chain: left <-> right <-> old-right.
  PageId old_right = node.right_sibling();
  right.set_right_sibling(old_right);
  right.set_left_sibling(leaf_guard.page_id());
  node.set_right_sibling(right_page);
  if (old_right != kInvalidPageId) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard orguard, pool_->FetchPage(old_right));
    BTreeNode ornode(orguard.data());
    ornode.set_left_sibling(right_page);
    orguard.MarkDirty();
  }
  leaf_guard.MarkDirty();
  right_guard.MarkDirty();
  split->sep = node.LeafEntryAt(keep - 1);
  split->right = right_page;
  return Status::OK();
}

Status BTree::SplitInner(PageGuard& inner_guard, Split* split) {
  BTreeNode node(inner_guard.data());
  uint16_t n = node.count();
  uint16_t mid = n / 2;  // separator `mid` is promoted

  BULKDEL_ASSIGN_OR_RETURN(PageId right_page, NewNode(node.level()));
  BULKDEL_ASSIGN_OR_RETURN(PageGuard right_guard, pool_->FetchPage(right_page));
  BTreeNode right(right_guard.data());
  right.Init(node.level());
  right.SetChild(0, node.Child(mid + 1));
  for (uint16_t i = mid + 1; i < n; ++i) {
    right.InnerInsertAt(i - mid - 1, node.InnerSep(i), node.Child(i + 1));
  }
  KeyRid promoted = node.InnerSep(mid);
  node.set_count(mid);

  PageId old_right = node.right_sibling();
  right.set_right_sibling(old_right);
  right.set_left_sibling(inner_guard.page_id());
  node.set_right_sibling(right_page);
  if (old_right != kInvalidPageId) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard orguard, pool_->FetchPage(old_right));
    BTreeNode ornode(orguard.data());
    ornode.set_left_sibling(right_page);
    orguard.MarkDirty();
  }
  inner_guard.MarkDirty();
  right_guard.MarkDirty();
  split->sep = promoted;
  split->right = right_page;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Traditional (record-at-a-time) delete
// ---------------------------------------------------------------------------

Status BTree::Delete(int64_t key, const Rid& rid) {
  KeyRid probe(key, rid);
  BULKDEL_ASSIGN_OR_RETURN(PageId leaf, DescendToLeaf(probe));
  bool empty = false;
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(leaf));
    BTreeNode node(guard.data());
    uint16_t pos = node.LeafLowerBound(probe);
    if (pos >= node.count() || !(node.LeafEntryAt(pos) == probe)) {
      return Status::NotFound("entry (" + std::to_string(key) + ", " +
                              rid.ToString() + ") not indexed");
    }
    node.LeafRemoveAt(pos);
    guard.MarkDirty();
    empty = node.count() == 0;
  }
  --entry_count_;
  if (empty && height_ > 1) {
    BULKDEL_RETURN_IF_ERROR(UnlinkFromChain(leaf));
    BULKDEL_RETURN_IF_ERROR(FreeNode(leaf));
    BULKDEL_RETURN_IF_ERROR(RemoveChildAtLevel(1, leaf, probe));
  }
  return Status::OK();
}

Status BTree::DeleteKey(int64_t key, Rid* deleted_rid) {
  BULKDEL_ASSIGN_OR_RETURN(PageId start, DescendToLeaf(KeyRid::Min(key)));
  PageId cur = start;
  while (cur != kInvalidPageId) {
    PageId next;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
      BTreeNode node(guard.data());
      uint16_t pos = node.LeafLowerBound(key);
      if (pos < node.count()) {
        if (node.LeafKey(pos) != key) {
          return Status::NotFound("key " + std::to_string(key) +
                                  " not indexed");
        }
        Rid rid = node.LeafRid(pos);
        if (deleted_rid != nullptr) *deleted_rid = rid;
        guard.Release();
        return Delete(key, rid);
      }
      next = node.right_sibling();
    }
    cur = next;
  }
  return Status::NotFound("key " + std::to_string(key) + " not indexed");
}

// ---------------------------------------------------------------------------
// Lookups and scans
// ---------------------------------------------------------------------------

Result<std::vector<Rid>> BTree::Search(int64_t key) {
  std::vector<Rid> rids;
  BULKDEL_RETURN_IF_ERROR(RangeScan(key, key, [&](int64_t, const Rid& rid) {
    rids.push_back(rid);
    return Status::OK();
  }));
  return rids;
}

Status BTree::RangeScan(
    int64_t lo, int64_t hi,
    const std::function<Status(int64_t, const Rid&)>& visitor) {
  BULKDEL_ASSIGN_OR_RETURN(PageId cur, DescendToLeaf(KeyRid::Min(lo)));
  while (cur != kInvalidPageId) {
    PageId next;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
      BTreeNode node(guard.data());
      uint16_t n = node.count();
      for (uint16_t pos = node.LeafLowerBound(lo); pos < n; ++pos) {
        int64_t k = node.LeafKey(pos);
        if (k > hi) return Status::OK();
        BULKDEL_RETURN_IF_ERROR(visitor(k, node.LeafRid(pos)));
      }
      next = node.right_sibling();
    }
    cur = next;
  }
  return Status::OK();
}

Status BTree::ScanAll(
    const std::function<Status(int64_t, const Rid&, uint16_t)>& visitor) {
  BULKDEL_ASSIGN_OR_RETURN(PageId cur, DescendToLeaf(KeyRid::Min(kMinKey)));
  while (cur != kInvalidPageId) {
    PageId next;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
      BTreeNode node(guard.data());
      uint16_t n = node.count();
      for (uint16_t pos = 0; pos < n; ++pos) {
        BULKDEL_RETURN_IF_ERROR(
            visitor(node.LeafKey(pos), node.LeafRid(pos), node.LeafFlags(pos)));
      }
      next = node.right_sibling();
    }
    cur = next;
  }
  return Status::OK();
}

Result<std::vector<PageId>> BTree::LeafChain() {
  std::vector<PageId> chain;
  BULKDEL_ASSIGN_OR_RETURN(PageId cur, DescendToLeaf(KeyRid::Min(kMinKey)));
  while (cur != kInvalidPageId) {
    chain.push_back(cur);
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
    cur = BTreeNode(guard.data()).right_sibling();
  }
  return chain;
}

// ---------------------------------------------------------------------------
// Free-at-empty plumbing
// ---------------------------------------------------------------------------

Status BTree::UnlinkFromChain(PageId node_page) {
  PageId left, right;
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(node_page));
    BTreeNode node(guard.data());
    left = node.left_sibling();
    right = node.right_sibling();
  }
  if (left != kInvalidPageId) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(left));
    BTreeNode node(guard.data());
    node.set_right_sibling(right);
    guard.MarkDirty();
  }
  if (right != kInvalidPageId) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(right));
    BTreeNode node(guard.data());
    node.set_left_sibling(left);
    guard.MarkDirty();
  }
  return Status::OK();
}

Status BTree::RemoveChildAtLevel(uint8_t parent_level, PageId child,
                                 const KeyRid& probe) {
  // Descend to the parent level by the child's (pre-deletion) smallest entry.
  PageId cur = root_;
  while (true) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
    BTreeNode node(guard.data());
    if (node.level() == parent_level) break;
    if (node.level() < parent_level) {
      return Status::Internal("RemoveChildAtLevel descended past level " +
                              std::to_string(parent_level));
    }
    cur = node.Child(node.ChildIndexFor(probe));
  }
  // Locate the owner node; walk the level chain right as a safety net.
  int idx = -1;
  while (cur != kInvalidPageId) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
    BTreeNode node(guard.data());
    idx = node.FindChild(child);
    if (idx >= 0) break;
    cur = node.right_sibling();
  }
  if (cur == kInvalidPageId || idx < 0) {
    return Status::Corruption("parent of freed node " + std::to_string(child) +
                              " not found at level " +
                              std::to_string(parent_level));
  }

  BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
  BTreeNode node(guard.data());
  if (node.count() == 0) {
    // The node's only child is being removed: the node itself dies too.
    guard.Release();
    if (cur == root_) {
      // The entire tree is empty now: reinitialize as a single empty leaf.
      BULKDEL_RETURN_IF_ERROR(FreeNode(cur));
      BULKDEL_ASSIGN_OR_RETURN(PageId leaf, NewNode(0));
      root_ = leaf;
      height_ = 1;
      return Status::OK();
    }
    BULKDEL_RETURN_IF_ERROR(UnlinkFromChain(cur));
    BULKDEL_RETURN_IF_ERROR(FreeNode(cur));
    return RemoveChildAtLevel(static_cast<uint8_t>(parent_level + 1), cur,
                              probe);
  }
  if (idx == 0) {
    node.InnerRemoveChild0();
  } else {
    node.InnerRemoveAt(static_cast<uint16_t>(idx - 1));
  }
  guard.MarkDirty();
  guard.Release();
  if (cur == root_) return MaybeCollapseRoot();
  return Status::OK();
}

Status BTree::MaybeCollapseRoot() {
  while (height_ > 1) {
    PageId only_child;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(root_));
      BTreeNode node(guard.data());
      if (node.is_leaf() || node.count() > 0) return Status::OK();
      only_child = node.Child(0);
    }
    PageId old_root = root_;
    root_ = only_child;
    --height_;
    BULKDEL_RETURN_IF_ERROR(FreeNode(old_root));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Bulk load
// ---------------------------------------------------------------------------

namespace {
/// Frees a whole subtree below `page` (page included). Local helper for
/// BulkLoad/Drop; reads the child list before freeing to bound pin depth.
Status FreeSubtree(BufferPool* pool, PageId page, uint32_t* leaves,
                   uint32_t* inners) {
  std::vector<PageId> children;
  bool leaf;
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool->FetchPage(page));
    BTreeNode node(guard.data());
    leaf = node.is_leaf();
    if (!leaf) {
      for (uint16_t i = 0; i <= node.count(); ++i) {
        children.push_back(node.Child(i));
      }
    }
  }
  for (PageId child : children) {
    BULKDEL_RETURN_IF_ERROR(FreeSubtree(pool, child, leaves, inners));
  }
  BULKDEL_RETURN_IF_ERROR(pool->DeletePage(page));
  if (leaf) {
    ++*leaves;
  } else {
    ++*inners;
  }
  return Status::OK();
}
}  // namespace

Status BTree::BulkLoad(const std::vector<KeyRid>& entries, double fill) {
  if (fill <= 0.0 || fill > 1.0) {
    return Status::InvalidArgument("fill factor must be in (0, 1]");
  }
  // Free the current contents.
  uint32_t freed_leaves = 0, freed_inner = 0;
  BULKDEL_RETURN_IF_ERROR(
      FreeSubtree(pool_, root_, &freed_leaves, &freed_inner));
  num_leaves_ -= freed_leaves;
  num_inner_ -= freed_inner;
  entry_count_ = 0;

  if (entries.empty()) {
    BULKDEL_ASSIGN_OR_RETURN(PageId leaf, NewNode(0));
    root_ = leaf;
    height_ = 1;
    return FlushMeta();
  }

  uint16_t per_leaf = std::max<uint16_t>(
      1, static_cast<uint16_t>(static_cast<double>(leaf_capacity()) * fill));
  std::vector<std::pair<KeyRid, PageId>> level;  // (max composite, page)
  PageId prev = kInvalidPageId;
  size_t i = 0;
  while (i < entries.size()) {
    size_t take = std::min<size_t>(per_leaf, entries.size() - i);
    // Avoid a pathologically small final leaf: split the tail evenly.
    if (entries.size() - i - take > 0 && entries.size() - i - take < per_leaf / 2) {
      take = (entries.size() - i + 1) / 2;
    }
    BULKDEL_ASSIGN_OR_RETURN(PageId page, NewNode(0));
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page));
    BTreeNode node(guard.data());
    for (size_t j = 0; j < take; ++j) {
      const KeyRid& e = entries[i + j];
      node.SetLeafEntry(static_cast<uint16_t>(j), e.key, e.rid, 0);
    }
    node.set_count(static_cast<uint16_t>(take));
    node.set_left_sibling(prev);
    guard.MarkDirty();
    if (prev != kInvalidPageId) {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard pguard, pool_->FetchPage(prev));
      BTreeNode pnode(pguard.data());
      pnode.set_right_sibling(page);
      pguard.MarkDirty();
    }
    level.emplace_back(entries[i + take - 1], page);
    prev = page;
    i += take;
  }
  entry_count_ = entries.size();
  return BuildUpperLevels(std::move(level), fill);
}

Status BTree::BulkInsertSorted(const std::vector<KeyRid>& entries) {
  if (entries.empty()) return Status::OK();
  // Small batch: ordered point inserts (the sorted stream keeps the inner
  // path cached, so this is already near-sequential).
  if (entries.size() < entry_count_ / 8 || entry_count_ == 0) {
    for (const KeyRid& e : entries) {
      BULKDEL_RETURN_IF_ERROR(Insert(e.key, e.rid));
    }
    return Status::OK();
  }
  // Large batch: merge the existing leaf level with the new entries and
  // rebuild — one sequential pass over the leaves, like the bulk delete.
  std::vector<KeyRid> merged;
  merged.reserve(entry_count_ + entries.size());
  size_t i = 0;
  Status dup = Status::OK();
  BULKDEL_RETURN_IF_ERROR(
      ScanAll([&](int64_t key, const Rid& rid, uint16_t) {
        KeyRid existing(key, rid);
        while (i < entries.size() && entries[i] < existing) {
          merged.push_back(entries[i++]);
        }
        if (i < entries.size() &&
            (entries[i] == existing ||
             (options_.unique && entries[i].key == key))) {
          dup = Status::AlreadyExists("bulk insert of existing entry for key " +
                                      std::to_string(entries[i].key));
        }
        merged.push_back(existing);
        return dup;
      }));
  if (!dup.ok()) return dup;
  while (i < entries.size()) merged.push_back(entries[i++]);
  if (options_.unique) {
    for (size_t j = 1; j < merged.size(); ++j) {
      if (merged[j].key == merged[j - 1].key) {
        return Status::AlreadyExists("duplicate key in unique bulk insert");
      }
    }
  }
  return BulkLoad(merged);
}

Status BTree::BuildUpperLevels(std::vector<std::pair<KeyRid, PageId>> children,
                               double fill) {
  uint8_t level_no = 1;
  while (children.size() > 1) {
    size_t per_node =
        std::max<size_t>(2, static_cast<size_t>(
                                static_cast<double>(inner_capacity()) * fill) +
                                1);  // children per inner node
    std::vector<std::pair<KeyRid, PageId>> next;
    PageId prev = kInvalidPageId;
    size_t i = 0;
    while (i < children.size()) {
      size_t remaining = children.size() - i;
      size_t take;
      if (remaining <= per_node) {
        take = remaining;
      } else if (remaining == per_node + 1) {
        // Balance the tail so no group ends up with a single child.
        take = remaining / 2;
      } else {
        take = per_node;
      }
      BULKDEL_ASSIGN_OR_RETURN(PageId page, NewNode(level_no));
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(page));
      BTreeNode node(guard.data());
      node.SetChild(0, children[i].second);
      for (size_t j = 1; j < take; ++j) {
        node.InnerInsertAt(static_cast<uint16_t>(j - 1),
                           children[i + j - 1].first,
                           children[i + j].second);
      }
      node.set_left_sibling(prev);
      guard.MarkDirty();
      if (prev != kInvalidPageId) {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard pguard, pool_->FetchPage(prev));
        BTreeNode pnode(pguard.data());
        pnode.set_right_sibling(page);
        pguard.MarkDirty();
      }
      next.emplace_back(children[i + take - 1].first, page);
      prev = page;
      i += take;
    }
    children = std::move(next);
    ++level_no;
  }
  root_ = children[0].second;
  height_ = level_no;
  return FlushMeta();
}

// ---------------------------------------------------------------------------
// Bulk delete primitives
// ---------------------------------------------------------------------------

Status BTree::BulkDeleteSortedKeys(
    const std::vector<int64_t>& keys, ReorgMode reorg,
    std::vector<Rid>* deleted_rids, BtreeBulkDeleteStats* stats,
    const std::function<void(int64_t, const Rid&)>& on_delete) {
  BtreeBulkDeleteStats local;
  std::vector<EmptyLeaf> empties;
  if (!keys.empty()) {
    BULKDEL_ASSIGN_OR_RETURN(PageId cur,
                             DescendToLeaf(KeyRid::Min(keys.front())));
    size_t i = 0;
    while (cur != kInvalidPageId && i < keys.size()) {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
      BTreeNode node(guard.data());
      ++local.leaves_visited;
      KeyRid probe0 =
          node.count() > 0 ? node.LeafEntryAt(0) : KeyRid::Min(kMinKey);
      bool modified = false;
      uint16_t pos = 0;
      while (pos < node.count() && i < keys.size()) {
        int64_t k = node.LeafKey(pos);
        if (k < keys[i]) {
          pos = node.LeafLowerBound(keys[i]);
          continue;
        }
        if (k > keys[i]) {
          ++i;
          continue;
        }
        if (node.LeafFlags(pos) & BTreeNode::kEntryUndeletable) {
          ++local.skipped_undeletable;
          ++pos;
          continue;
        }
        if (deleted_rids != nullptr) deleted_rids->push_back(node.LeafRid(pos));
        if (on_delete) on_delete(k, node.LeafRid(pos));
        node.LeafRemoveAt(pos);
        modified = true;
        ++local.entries_deleted;
      }
      if (modified) guard.MarkDirty();
      if (node.count() == 0 && height_ > 1) {
        empties.push_back(EmptyLeaf{cur, probe0});
      }
      cur = node.right_sibling();
    }
  }
  entry_count_ -= local.entries_deleted;
  BULKDEL_RETURN_IF_ERROR(FinishBulkDelete(std::move(empties), reorg, &local));
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status BTree::BulkDeleteSortedEntries(const std::vector<KeyRid>& entries,
                                      ReorgMode reorg,
                                      BtreeBulkDeleteStats* stats) {
  BtreeBulkDeleteStats local;
  std::vector<EmptyLeaf> empties;
  if (!entries.empty()) {
    BULKDEL_ASSIGN_OR_RETURN(PageId cur, DescendToLeaf(entries.front()));
    size_t i = 0;
    while (cur != kInvalidPageId && i < entries.size()) {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
      BTreeNode node(guard.data());
      ++local.leaves_visited;
      KeyRid probe0 =
          node.count() > 0 ? node.LeafEntryAt(0) : KeyRid::Min(kMinKey);
      bool modified = false;
      uint16_t pos = 0;
      while (pos < node.count() && i < entries.size()) {
        KeyRid e = node.LeafEntryAt(pos);
        if (e < entries[i]) {
          pos = node.LeafLowerBound(entries[i]);
          continue;
        }
        if (entries[i] < e) {
          ++i;
          continue;
        }
        if (node.LeafFlags(pos) & BTreeNode::kEntryUndeletable) {
          ++local.skipped_undeletable;
          ++pos;
          ++i;
          continue;
        }
        node.LeafRemoveAt(pos);
        modified = true;
        ++local.entries_deleted;
        ++i;
      }
      if (modified) guard.MarkDirty();
      if (node.count() == 0 && height_ > 1) {
        empties.push_back(EmptyLeaf{cur, probe0});
      }
      cur = node.right_sibling();
    }
  }
  entry_count_ -= local.entries_deleted;
  BULKDEL_RETURN_IF_ERROR(FinishBulkDelete(std::move(empties), reorg, &local));
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status BTree::BulkDeleteByPredicate(
    const std::function<bool(int64_t, const Rid&)>& pred, ReorgMode reorg,
    BtreeBulkDeleteStats* stats, std::optional<int64_t> lo,
    std::optional<int64_t> hi,
    const std::function<void(int64_t, const Rid&)>& on_delete) {
  BtreeBulkDeleteStats local;
  std::vector<EmptyLeaf> empties;
  PageId cur;
  {
    BULKDEL_ASSIGN_OR_RETURN(
        PageId start, DescendToLeaf(KeyRid::Min(lo.has_value() ? *lo : kMinKey)));
    cur = start;
  }
  bool done = false;
  while (cur != kInvalidPageId && !done) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
    BTreeNode node(guard.data());
    ++local.leaves_visited;
    KeyRid probe0 =
        node.count() > 0 ? node.LeafEntryAt(0) : KeyRid::Min(kMinKey);
    bool modified = false;
    uint16_t pos = 0;
    while (pos < node.count()) {
      int64_t k = node.LeafKey(pos);
      if (hi.has_value() && k > *hi) {
        done = true;
        break;
      }
      if ((lo.has_value() && k < *lo) || !pred(k, node.LeafRid(pos))) {
        ++pos;
        continue;
      }
      if (node.LeafFlags(pos) & BTreeNode::kEntryUndeletable) {
        ++local.skipped_undeletable;
        ++pos;
        continue;
      }
      if (on_delete) on_delete(k, node.LeafRid(pos));
      node.LeafRemoveAt(pos);
      modified = true;
      ++local.entries_deleted;
    }
    if (modified) guard.MarkDirty();
    if (node.count() == 0 && height_ > 1) {
      empties.push_back(EmptyLeaf{cur, probe0});
    }
    cur = node.right_sibling();
  }
  entry_count_ -= local.entries_deleted;
  BULKDEL_RETURN_IF_ERROR(FinishBulkDelete(std::move(empties), reorg, &local));
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status BTree::BulkDeleteRange(
    int64_t lo, int64_t hi, ReorgMode reorg, std::vector<Rid>* deleted_rids,
    BtreeBulkDeleteStats* stats,
    const std::function<Status(PageId, const std::vector<KeyRid>&)>&
        on_leaf_drop,
    const std::function<void(int64_t, const Rid&)>& on_delete,
    std::vector<PageId>* dropped_pages) {
  deferred_frees_ = dropped_pages;
  Status status = BulkDeleteRangeLocked(lo, hi, reorg, deleted_rids, stats,
                                        on_leaf_drop, on_delete);
  deferred_frees_ = nullptr;
  return status;
}

Status BTree::BulkDeleteRangeLocked(
    int64_t lo, int64_t hi, ReorgMode reorg, std::vector<Rid>* deleted_rids,
    BtreeBulkDeleteStats* stats,
    const std::function<Status(PageId, const std::vector<KeyRid>&)>&
        on_leaf_drop,
    const std::function<void(int64_t, const Rid&)>& on_delete) {
  BtreeBulkDeleteStats local;
  std::vector<EmptyLeaf> empties;
  // Contiguous dropped-leaf runs are spliced out of the sibling chain with
  // two boundary writes (the left neighbor's right pointer and the right
  // neighbor's left pointer); the dropped leaves themselves are never
  // modified, so the only per-leaf charge is the read that harvested their
  // entries. Parent maintenance dirties one inner page per fan-out children.
  std::vector<EmptyLeaf> run;
  PageId run_left = kInvalidPageId;
  auto close_run = [&]() -> Status {
    if (run.empty()) return Status::OK();
    if (run_left != kInvalidPageId) {
      PageId next;
      {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard guard,
                                 pool_->FetchPage(run.back().page));
        next = BTreeNode(guard.data()).right_sibling();
      }
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(run_left));
      BTreeNode left_node(guard.data());
      left_node.set_right_sibling(next);
      guard.MarkDirty();
    }
    for (const EmptyLeaf& d : run) {
      if (d.page == root_) {
        // Root collapse promoted this dropped leaf to be the whole tree: it
        // survives as the empty root, so it must actually be emptied (the
        // one dropped leaf whose image is written) — and unhooked from its
        // freed former neighbors.
        BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(d.page));
        BTreeNode node(guard.data());
        node.LeafRemoveRange(0, node.count());
        node.set_left_sibling(kInvalidPageId);
        node.set_right_sibling(kInvalidPageId);
        guard.MarkDirty();
        continue;
      }
      BULKDEL_RETURN_IF_ERROR(FreeNode(d.page));
      if (height_ > 1) {
        BULKDEL_RETURN_IF_ERROR(RemoveChildAtLevel(1, d.page, d.probe));
      }
      ++local.leaves_freed;
    }
    run.clear();
    return Status::OK();
  };
  if (lo <= hi) {
    BULKDEL_ASSIGN_OR_RETURN(PageId cur, DescendToLeaf(KeyRid::Min(lo)));
    bool done = false;
    while (cur != kInvalidPageId && !done) {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
      BTreeNode node(guard.data());
      ++local.leaves_visited;
      uint16_t count = node.count();
      KeyRid probe0 = count > 0 ? node.LeafEntryAt(0) : KeyRid::Min(kMinKey);
      // Leaf-run fast path: every entry covered by [lo, hi] and none pinned
      // undeletable — the leaf dies whole: one drop record, no write, no
      // per-entry removal.
      bool run_leaf = count > 0 && height_ > 1 && node.LeafKey(0) >= lo &&
                      node.LeafKey(static_cast<uint16_t>(count - 1)) <= hi;
      if (run_leaf) {
        for (uint16_t pos = 0; pos < count; ++pos) {
          if (node.LeafFlags(pos) & BTreeNode::kEntryUndeletable) {
            run_leaf = false;
            break;
          }
        }
      }
      if (run_leaf) {
        std::vector<KeyRid> harvest;
        harvest.reserve(count);
        for (uint16_t pos = 0; pos < count; ++pos) {
          harvest.push_back(node.LeafEntryAt(pos));
        }
        if (on_leaf_drop) BULKDEL_RETURN_IF_ERROR(on_leaf_drop(cur, harvest));
        if (deleted_rids != nullptr) {
          for (const KeyRid& e : harvest) deleted_rids->push_back(e.rid);
        }
        if (run.empty()) run_left = node.left_sibling();
        run.push_back(EmptyLeaf{cur, probe0});
        local.entries_deleted += count;
        ++local.leaves_dropped;
        cur = node.right_sibling();
        continue;
      }
      // Boundary (or marker-pinned) leaf: splice any open run out of the
      // chain before the per-entry pass mutates this leaf.
      if (!run.empty()) {
        node.set_left_sibling(run_left);
        guard.MarkDirty();
        BULKDEL_RETURN_IF_ERROR(close_run());
      }
      // Per-entry removal.
      bool modified = false;
      uint16_t pos = count > 0 ? node.LeafLowerBound(lo) : 0;
      while (pos < node.count()) {
        int64_t k = node.LeafKey(pos);
        if (k > hi) {
          done = true;
          break;
        }
        if (node.LeafFlags(pos) & BTreeNode::kEntryUndeletable) {
          ++local.skipped_undeletable;
          ++pos;
          continue;
        }
        if (deleted_rids != nullptr) deleted_rids->push_back(node.LeafRid(pos));
        if (on_delete) on_delete(k, node.LeafRid(pos));
        node.LeafRemoveAt(pos);
        modified = true;
        ++local.entries_deleted;
      }
      if (modified) guard.MarkDirty();
      if (node.count() == 0 && height_ > 1) {
        empties.push_back(EmptyLeaf{cur, probe0});
      }
      cur = node.right_sibling();
    }
    // A run still open here ran off the right end of the chain (or the range
    // covered everything up to a leaf we never fetched): splice it out now.
    BULKDEL_RETURN_IF_ERROR(close_run());
  }
  entry_count_ -= local.entries_deleted;
  BULKDEL_RETURN_IF_ERROR(FinishBulkDelete(std::move(empties), reorg, &local));
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status BTree::FinishBulkDelete(std::vector<EmptyLeaf> empties, ReorgMode reorg,
                               BtreeBulkDeleteStats* stats) {
  // Free-at-empty: reclaim completely empty leaves [9] and fix their parents.
  for (const EmptyLeaf& e : empties) {
    // Root collapse during an earlier iteration may have promoted this leaf
    // to be the (empty) root; an empty root leaf is a legal empty tree.
    if (e.page == root_) continue;
    BULKDEL_RETURN_IF_ERROR(UnlinkFromChain(e.page));
    BULKDEL_RETURN_IF_ERROR(FreeNode(e.page));
    if (height_ > 1) {
      BULKDEL_RETURN_IF_ERROR(RemoveChildAtLevel(1, e.page, e.probe));
    }
    ++stats->leaves_freed;
  }
  switch (reorg) {
    case ReorgMode::kFreeAtEmpty:
      break;
    case ReorgMode::kCompactAndRebuild:
      BULKDEL_RETURN_IF_ERROR(CompactAndRebuild());
      break;
    case ReorgMode::kIncrementalBaseNode:
      BULKDEL_RETURN_IF_ERROR(IncrementalBaseNodeReorg());
      break;
  }
  return FlushMeta();
}

Status BTree::MergeLookupSortedKeys(
    const std::vector<int64_t>& keys,
    const std::function<Status(int64_t, const Rid&)>& visitor) {
  if (keys.empty()) return Status::OK();
  BULKDEL_ASSIGN_OR_RETURN(PageId cur, DescendToLeaf(KeyRid::Min(keys.front())));
  size_t i = 0;
  while (cur != kInvalidPageId && i < keys.size()) {
    PageId next;
    {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
      BTreeNode node(guard.data());
      uint16_t pos = 0;
      while (pos < node.count() && i < keys.size()) {
        int64_t k = node.LeafKey(pos);
        if (k < keys[i]) {
          pos = node.LeafLowerBound(keys[i]);
          continue;
        }
        if (k > keys[i]) {
          ++i;
          continue;
        }
        BULKDEL_RETURN_IF_ERROR(visitor(k, node.LeafRid(pos)));
        ++pos;
      }
      next = node.right_sibling();
    }
    cur = next;
  }
  return Status::OK();
}

Result<uint64_t> BTree::CountMatchingSortedKeys(
    const std::vector<int64_t>& keys) {
  uint64_t count = 0;
  BULKDEL_RETURN_IF_ERROR(
      MergeLookupSortedKeys(keys, [&](int64_t, const Rid&) {
        ++count;
        return Status::OK();
      }));
  return count;
}

Status BTree::ClearUndeletableFlags() {
  BULKDEL_ASSIGN_OR_RETURN(PageId cur, DescendToLeaf(KeyRid::Min(kMinKey)));
  while (cur != kInvalidPageId) {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
    BTreeNode node(guard.data());
    bool modified = false;
    uint16_t n = node.count();
    for (uint16_t i = 0; i < n; ++i) {
      if (node.LeafFlags(i) & BTreeNode::kEntryUndeletable) {
        node.SetLeafFlags(
            i, node.LeafFlags(i) & ~BTreeNode::kEntryUndeletable);
        modified = true;
      }
    }
    if (modified) guard.MarkDirty();
    cur = node.right_sibling();
  }
  return Status::OK();
}

Status BTree::RecountFromScan() {
  uint64_t entries = 0;
  uint32_t leaves = 0;
  uint32_t inners = 0;
  PageId level_head = root_;
  int levels = 0;
  while (level_head != kInvalidPageId) {
    PageId next_head = kInvalidPageId;
    PageId cur = level_head;
    bool leaf_level = false;
    while (cur != kInvalidPageId) {
      BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(cur));
      BTreeNode node(guard.data());
      leaf_level = node.is_leaf();
      if (cur == level_head && !leaf_level) next_head = node.Child(0);
      if (leaf_level) {
        ++leaves;
        entries += node.count();
      } else {
        ++inners;
      }
      cur = node.right_sibling();
    }
    ++levels;
    if (leaf_level) break;
    level_head = next_head;
  }
  entry_count_ = entries;
  num_leaves_ = leaves;
  num_inner_ = inners;
  height_ = levels;
  return FlushMeta();
}

Status BTree::Drop() {
  uint32_t leaves = 0, inners = 0;
  BULKDEL_RETURN_IF_ERROR(FreeSubtree(pool_, root_, &leaves, &inners));
  num_leaves_ -= leaves;
  num_inner_ -= inners;
  BULKDEL_RETURN_IF_ERROR(pool_->DeletePage(meta_page_));
  root_ = kInvalidPageId;
  height_ = 0;
  entry_count_ = 0;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Invariant checking (test support)
// ---------------------------------------------------------------------------

namespace {
struct CheckContext {
  BufferPool* pool;
  const BTree* tree;
  std::vector<std::vector<PageId>> levels;  // per level, in left-to-right order
  uint64_t entries = 0;
  uint32_t leaves = 0;
  uint32_t inners = 0;
};

Status CheckNode(CheckContext* ctx, PageId page, int expected_level,
                 const KeyRid* lo, const KeyRid* hi) {
  // Copy the node out so recursion never holds more than one pin.
  char buf[kPageSize];
  {
    BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, ctx->pool->FetchPage(page));
    std::memcpy(buf, guard.data(), kPageSize);
  }
  BTreeNode node(buf);
  if (node.level() != expected_level) {
    return Status::Corruption("node " + std::to_string(page) +
                              ": level mismatch");
  }
  if (static_cast<size_t>(expected_level) >= ctx->levels.size()) {
    return Status::Corruption("node deeper than tree height");
  }
  ctx->levels[expected_level].push_back(page);

  if (node.is_leaf()) {
    ++ctx->leaves;
    ctx->entries += node.count();
    for (uint16_t i = 0; i < node.count(); ++i) {
      KeyRid e = node.LeafEntryAt(i);
      if (i > 0 && !(node.LeafEntryAt(i - 1) < e)) {
        return Status::Corruption("leaf " + std::to_string(page) +
                                  ": entries not strictly sorted");
      }
      if (lo != nullptr && !(*lo < e)) {
        return Status::Corruption("leaf " + std::to_string(page) +
                                  ": entry below lower bound");
      }
      if (hi != nullptr && !(e <= *hi)) {
        return Status::Corruption("leaf " + std::to_string(page) +
                                  ": entry above upper bound");
      }
    }
    return Status::OK();
  }

  ++ctx->inners;
  uint16_t n = node.count();
  for (uint16_t i = 1; i < n; ++i) {
    if (!(node.InnerSep(i - 1) < node.InnerSep(i))) {
      return Status::Corruption("inner " + std::to_string(page) +
                                ": separators not strictly sorted");
    }
  }
  for (uint16_t i = 0; i <= n; ++i) {
    KeyRid lo_sep, hi_sep;
    const KeyRid* child_lo = lo;
    const KeyRid* child_hi = hi;
    if (i > 0) {
      lo_sep = node.InnerSep(i - 1);
      child_lo = &lo_sep;
    }
    if (i < n) {
      hi_sep = node.InnerSep(i);
      child_hi = &hi_sep;
    }
    BULKDEL_RETURN_IF_ERROR(
        CheckNode(ctx, node.Child(i), expected_level - 1, child_lo, child_hi));
  }
  return Status::OK();
}
}  // namespace

Status BTree::CheckInvariants() {
  if (root_ == kInvalidPageId) {
    return Status::Corruption("tree has no root");
  }
  CheckContext ctx;
  ctx.pool = pool_;
  ctx.tree = this;
  ctx.levels.resize(static_cast<size_t>(height_));
  BULKDEL_RETURN_IF_ERROR(
      CheckNode(&ctx, root_, height_ - 1, nullptr, nullptr));

  if (ctx.entries != entry_count_) {
    return Status::Corruption("entry count mismatch: meta says " +
                              std::to_string(entry_count_) + ", tree has " +
                              std::to_string(ctx.entries));
  }
  if (ctx.leaves != num_leaves_ || ctx.inners != num_inner_) {
    return Status::Corruption("node count bookkeeping mismatch");
  }
  // Sibling chains per level must match in-order traversal.
  for (const std::vector<PageId>& level : ctx.levels) {
    for (size_t i = 0; i < level.size(); ++i) {
      char buf[kPageSize];
      {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(level[i]));
        std::memcpy(buf, guard.data(), kPageSize);
      }
      BTreeNode node(buf);
      PageId want_left = i == 0 ? kInvalidPageId : level[i - 1];
      PageId want_right = i + 1 == level.size() ? kInvalidPageId : level[i + 1];
      if (node.left_sibling() != want_left ||
          node.right_sibling() != want_right) {
        return Status::Corruption("sibling chain broken at page " +
                                  std::to_string(level[i]));
      }
    }
  }
  // Empty leaves are only legal as the root of an empty tree.
  if (height_ > 1) {
    for (PageId leaf : ctx.levels[0]) {
      char buf[kPageSize];
      {
        BULKDEL_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(leaf));
        std::memcpy(buf, guard.data(), kPageSize);
      }
      if (BTreeNode(buf).count() == 0) {
        return Status::Corruption("empty leaf " + std::to_string(leaf) +
                                  " survived free-at-empty");
      }
    }
  }
  return Status::OK();
}

}  // namespace bulkdel
