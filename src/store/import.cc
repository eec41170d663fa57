#include "store/import.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "store/tree_page.h"

namespace navpath {
namespace {

/// Per-node attachment state while the node can still receive children:
/// the page and parent record under which the next child record goes, and
/// the last element of the current chain segment.
struct AttachState {
  std::uint32_t page = 0;      // index into the build-page list
  SlotId parent_slot = kInvalidSlot;
  SlotId last_elem = kInvalidSlot;
};

class Materializer {
 public:
  Materializer(const DomTree& tree, const ClusterAssignment& assignment,
               SimulatedDisk* disk, const ImportOptions& options,
               std::vector<PageId>* node_pages,
               std::vector<std::pair<DomNodeId, PageId>>* glue_pages)
      : tree_(tree),
        assignment_(assignment),
        disk_(disk),
        page_size_(disk->page_size()),
        options_(options),
        node_pages_(node_pages),
        glue_pages_(glue_pages) {}

  Result<ImportedDocument> Run();

 private:
  struct BuildPage {
    std::unique_ptr<std::byte[]> bytes;
    std::size_t reserved = 0;  // bytes held back for continuation borders
  };

  TreePage View(std::uint32_t idx) {
    return TreePage(pages_[idx].bytes.get(), page_size_);
  }

  std::size_t EffectiveFree(std::uint32_t idx) {
    const std::size_t free = View(idx).FreeBytes();
    NAVPATH_DCHECK(free >= pages_[idx].reserved);
    return free - pages_[idx].reserved;
  }

  std::uint32_t NewPage() {
    BuildPage bp;
    bp.bytes = std::make_unique<std::byte[]>(page_size_);
    TreePage::Initialize(bp.bytes.get(), page_size_);
    pages_.push_back(std::move(bp));
    return static_cast<std::uint32_t>(pages_.size() - 1);
  }

  /// The page currently accepting new fragments of policy cluster `c`.
  std::uint32_t ClusterOpenPage(std::uint32_t c) {
    auto it = cluster_open_.find(c);
    if (it != cluster_open_.end()) return it->second;
    const std::uint32_t idx = NewPage();
    cluster_open_[c] = idx;
    return idx;
  }

  NodeID IdOf(std::uint32_t page_idx, SlotId slot) const {
    return NodeID{base_page_ + page_idx, slot};
  }

  std::string_view CappedText(DomNodeId v) const {
    const std::string& t = tree_.node(v).text;
    return std::string_view(t).substr(0, options_.text_cap);
  }

  /// Bytes node v's attribute records will occupy (incl. slot entries).
  std::size_t AttrSpace(DomNodeId v) const {
    std::size_t bytes = 0;
    for (DomNodeId a = tree_.node(v).first_attr; a != kNilDomNode;
         a = tree_.node(a).next_sibling) {
      bytes += TreePage::CoreRecordSpace(CappedText(a).size());
    }
    return bytes;
  }

  /// Materializes v's attribute chain next to its element record.
  Status PlaceAttributes(DomNodeId v, std::uint32_t page_idx,
                         SlotId element_slot) {
    TreePage page = View(page_idx);
    SlotId prev = kInvalidSlot;
    for (DomNodeId a = tree_.node(v).first_attr; a != kNilDomNode;
         a = tree_.node(a).next_sibling) {
      NAVPATH_ASSIGN_OR_RETURN(
          const SlotId slot,
          page.AddAttributeRecord(tree_.node(a).tag, tree_.node(a).order,
                                  CappedText(a)));
      page.SetParent(slot, element_slot);
      if (prev == kInvalidSlot) {
        page.SetFirstAttr(element_slot, slot);
      } else {
        page.SetNextSibling(prev, slot);
      }
      prev = slot;
      RecordNodePage(a, page_idx);
      ++doc_.attribute_records;
    }
    return Status::OK();
  }

  /// Appends chain element `e` (core or down-border) under `u`'s current
  /// attach point.
  void LinkChild(DomNodeId u, SlotId e) {
    AttachState& st = attach_[u];
    TreePage page = View(st.page);
    const SlotId ps = st.parent_slot;
    const bool parent_is_up = page.KindOf(ps) == RecordKind::kBorderUp;
    if (st.last_elem == kInvalidSlot) {
      page.SetFirstChild(ps, e);
      if (parent_is_up) page.SetPrevSibling(e, ps);
    } else {
      page.SetNextSibling(st.last_elem, e);
      page.SetPrevSibling(e, st.last_elem);
    }
    if (parent_is_up) page.SetLastChild(ps, e);
    page.SetParent(e, ps);
    st.last_elem = e;
  }

  /// Closes u's current chain segment (terminal next pointer towards the
  /// fragment's up-border, if any).
  void SealSegment(DomNodeId u) {
    const AttachState& st = attach_[u];
    if (st.last_elem == kInvalidSlot) return;
    TreePage page = View(st.page);
    if (page.KindOf(st.parent_slot) == RecordKind::kBorderUp) {
      page.SetNextSibling(st.last_elem, st.parent_slot);
    }
  }

  /// Makes sure u's attach page can absorb `need` more bytes, splitting
  /// the child list into a continuation fragment if it cannot.
  Status EnsureAttachSpace(DomNodeId u, std::size_t need) {
    AttachState& st = attach_[u];
    if (EffectiveFree(st.page) >= need) return Status::OK();

    // Consume u's reservation in the old page for the continuation
    // down-border.
    NAVPATH_DCHECK(pages_[st.page].reserved >= TreePage::BorderRecordSpace());
    pages_[st.page].reserved -= TreePage::BorderRecordSpace();
    TreePage old_page = View(st.page);
    NAVPATH_ASSIGN_OR_RETURN(const SlotId cont_down,
                             old_page.AddBorderRecord(RecordKind::kBorderDown));
    const std::uint32_t old_idx = st.page;
    LinkChild(u, cont_down);
    SealSegment(u);

    // Fresh page for the remaining children; it becomes the open page of
    // u's policy cluster so locality is preserved.
    const std::uint32_t new_idx = NewPage();
    cluster_open_[assignment_[u]] = new_idx;
    TreePage new_page = View(new_idx);
    NAVPATH_ASSIGN_OR_RETURN(const SlotId cont_up,
                             new_page.AddBorderRecord(RecordKind::kBorderUp));
    new_page.SetPartner(cont_up, IdOf(old_idx, cont_down));
    View(old_idx).SetPartner(cont_down, IdOf(new_idx, cont_up));
    pages_[new_idx].reserved += TreePage::BorderRecordSpace();

    st.page = new_idx;
    st.parent_slot = cont_up;
    st.last_elem = kInvalidSlot;
    // The fresh page extends u's child list: border records for u's later
    // children land here even if no record of u (or of any node the
    // synopsis tracks) ever does. Report it as u's glue page.
    if (glue_pages_ != nullptr) cont_page_.emplace_back(u, new_idx);
    ++doc_.border_pairs;
    ++doc_.continuation_pairs;
    NAVPATH_DCHECK(EffectiveFree(new_idx) >= need);
    return Status::OK();
  }

  Status PlaceRoot(DomNodeId root);
  Status PlaceChild(DomNodeId v);
  Status FinishNode(DomNodeId v);

  const DomTree& tree_;
  const ClusterAssignment& assignment_;
  SimulatedDisk* disk_;
  std::size_t page_size_;
  ImportOptions options_;

  /// Records node v's placement build page. AttachState::page can move
  /// later (continuation splits re-point the attach page); the record
  /// itself stays where it was placed, so capture the page here.
  void RecordNodePage(DomNodeId v, std::uint32_t build_idx) {
    if (node_pages_ != nullptr) build_page_[v] = build_idx;
  }

  std::vector<BuildPage> pages_;
  std::unordered_map<std::uint32_t, std::uint32_t> cluster_open_;
  std::vector<AttachState> attach_;
  PageId base_page_ = 0;
  ImportedDocument doc_;
  std::vector<PageId>* node_pages_;
  std::vector<std::pair<DomNodeId, PageId>>* glue_pages_;
  std::vector<std::uint32_t> build_page_;
  /// (owner, build page) per continuation split, in creation order.
  std::vector<std::pair<DomNodeId, std::uint32_t>> cont_page_;
};

Status Materializer::PlaceRoot(DomNodeId root) {
  const std::uint32_t idx = ClusterOpenPage(assignment_[root]);
  TreePage page = View(idx);
  NAVPATH_ASSIGN_OR_RETURN(
      const SlotId slot,
      page.AddCoreRecord(tree_.node(root).tag, tree_.node(root).order,
                         CappedText(root)));
  NAVPATH_RETURN_NOT_OK(PlaceAttributes(root, idx, slot));
  attach_[root] = AttachState{idx, slot, kInvalidSlot};
  RecordNodePage(root, idx);
  pages_[idx].reserved += TreePage::BorderRecordSpace();
  doc_.root = IdOf(idx, slot);
  doc_.root_order = tree_.node(root).order;
  ++doc_.core_records;
  return Status::OK();
}

Status Materializer::PlaceChild(DomNodeId v) {
  const DomNodeId u = tree_.node(v).parent;
  const std::string_view text = CappedText(v);
  const std::size_t core_space = TreePage::CoreRecordSpace(text.size());
  const std::size_t reserve_space = TreePage::BorderRecordSpace();

  const std::size_t attr_space = AttrSpace(v);
  if (assignment_[v] == assignment_[u]) {
    // Keep v next to its parent: place into u's attach page (after a
    // possible continuation split).
    NAVPATH_RETURN_NOT_OK(
        EnsureAttachSpace(u, core_space + attr_space + reserve_space));
    AttachState& ust = attach_[u];
    TreePage page = View(ust.page);
    NAVPATH_ASSIGN_OR_RETURN(
        const SlotId slot,
        page.AddCoreRecord(tree_.node(v).tag, tree_.node(v).order, text));
    NAVPATH_RETURN_NOT_OK(PlaceAttributes(v, ust.page, slot));
    LinkChild(u, slot);
    attach_[v] = AttachState{ust.page, slot, kInvalidSlot};
    RecordNodePage(v, ust.page);
    pages_[ust.page].reserved += reserve_space;
  } else {
    // v starts (or extends) a foreign cluster: border pair for the edge.
    std::uint32_t v_idx = ClusterOpenPage(assignment_[v]);
    const std::size_t fragment_space = TreePage::BorderRecordSpace() +
                                       core_space + attr_space +
                                       reserve_space;
    if (EffectiveFree(v_idx) < fragment_space) {
      v_idx = NewPage();
      cluster_open_[assignment_[v]] = v_idx;
    }
    TreePage v_page = View(v_idx);
    NAVPATH_ASSIGN_OR_RETURN(const SlotId up,
                             v_page.AddBorderRecord(RecordKind::kBorderUp));
    NAVPATH_ASSIGN_OR_RETURN(
        const SlotId slot,
        v_page.AddCoreRecord(tree_.node(v).tag, tree_.node(v).order, text));
    NAVPATH_RETURN_NOT_OK(PlaceAttributes(v, v_idx, slot));
    // v is the sole child of its plain up-border: the sibling chain starts
    // and ends at the border so navigation can resume in both directions.
    v_page.SetFirstChild(up, slot);
    v_page.SetLastChild(up, slot);
    v_page.SetParent(slot, up);
    v_page.SetPrevSibling(slot, up);
    v_page.SetNextSibling(slot, up);
    pages_[v_idx].reserved += reserve_space;

    NAVPATH_RETURN_NOT_OK(
        EnsureAttachSpace(u, TreePage::BorderRecordSpace()));
    AttachState& ust = attach_[u];
    TreePage u_page = View(ust.page);
    NAVPATH_ASSIGN_OR_RETURN(const SlotId down,
                             u_page.AddBorderRecord(RecordKind::kBorderDown));
    LinkChild(u, down);
    u_page.SetPartner(down, IdOf(v_idx, up));
    View(v_idx).SetPartner(up, IdOf(ust.page, down));
    attach_[v] = AttachState{v_idx, slot, kInvalidSlot};
    RecordNodePage(v, v_idx);
    ++doc_.border_pairs;
  }
  ++doc_.core_records;
  return Status::OK();
}

Status Materializer::FinishNode(DomNodeId v) {
  SealSegment(v);
  AttachState& st = attach_[v];
  NAVPATH_DCHECK(pages_[st.page].reserved >= TreePage::BorderRecordSpace());
  pages_[st.page].reserved -= TreePage::BorderRecordSpace();
  return Status::OK();
}

Result<ImportedDocument> Materializer::Run() {
  if (tree_.empty()) {
    return Status::InvalidArgument("cannot import an empty document");
  }
  if (assignment_.size() != tree_.size()) {
    return Status::InvalidArgument("assignment size != tree size");
  }
  // A fresh page must always fit one fragment with maximal text plus the
  // continuation machinery; clamp the text cap accordingly.
  const std::size_t overhead = TreePage::CoreRecordSpace(0) +
                               4 * TreePage::BorderRecordSpace() +
                               TreePage::kHeaderBytes;
  if (overhead + 16 > page_size_) {
    return Status::InvalidArgument("page size too small for tree records");
  }
  options_.text_cap = std::min(options_.text_cap, page_size_ - overhead - 16);

  attach_.resize(tree_.size());
  if (node_pages_ != nullptr) build_page_.resize(tree_.size(), 0);
  base_page_ = disk_->num_pages();

  // Depth-first traversal with pre/post events; parents are placed before
  // their children, nodes are sealed after their whole subtree.
  std::vector<std::pair<DomNodeId, bool>> stack;
  stack.emplace_back(tree_.root(), false);
  while (!stack.empty()) {
    const auto [v, post] = stack.back();
    stack.pop_back();
    if (post) {
      NAVPATH_RETURN_NOT_OK(FinishNode(v));
      continue;
    }
    if (v == tree_.root()) {
      NAVPATH_RETURN_NOT_OK(PlaceRoot(v));
    } else {
      NAVPATH_RETURN_NOT_OK(PlaceChild(v));
    }
    stack.emplace_back(v, true);
    // Children pushed right-to-left so they are placed in document order.
    for (DomNodeId c = tree_.node(v).last_child; c != kNilDomNode;
         c = tree_.node(c).prev_sibling) {
      stack.emplace_back(c, false);
    }
  }

  // Determine each build page's physical position. By default this is the
  // creation order; with fragmentation enabled, pages are displaced within
  // a window to model split-based imports and aged databases. The window
  // and the seed are fixed, so a fragmentation level names one layout.
  constexpr std::size_t kFragmentationWindow = 64;
  constexpr std::uint64_t kFragmentationSeed = 1;
  std::vector<std::uint32_t> position(pages_.size());
  for (std::uint32_t i = 0; i < position.size(); ++i) position[i] = i;
  if (options_.fragmentation > 0.0 && pages_.size() > 1) {
    Random rng(kFragmentationSeed);
    const std::uint32_t n = static_cast<std::uint32_t>(pages_.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!rng.NextBool(options_.fragmentation)) continue;
      const std::uint32_t span = static_cast<std::uint32_t>(std::min<
          std::size_t>(kFragmentationWindow, n - 1 - i));
      if (span == 0) continue;
      const std::uint32_t j =
          i + 1 + static_cast<std::uint32_t>(rng.NextBounded(span));
      std::swap(position[i], position[j]);
    }
    // Remap every NodeID that names a page: border partners and the root.
    auto remap = [&](NodeID id) {
      return NodeID{base_page_ + position[id.page - base_page_], id.slot};
    };
    for (std::uint32_t i = 0; i < pages_.size(); ++i) {
      TreePage page = View(i);
      for (SlotId s = 0; s < page.slot_count(); ++s) {
        if (page.IsBorder(s)) page.SetPartner(s, remap(page.PartnerOf(s)));
      }
    }
    doc_.root = remap(doc_.root);
  }

  for (std::uint32_t i = 0; i < pages_.size(); ++i) {
    NAVPATH_CHECK(disk_->AllocatePage() == base_page_ + i);
  }
  for (std::uint32_t i = 0; i < pages_.size(); ++i) {
    NAVPATH_RETURN_NOT_OK(disk_->WriteSync(base_page_ + position[i],
                                           pages_[i].bytes.get()));
  }
  doc_.first_page = base_page_;
  doc_.last_page = base_page_ + static_cast<PageId>(pages_.size()) - 1;
  doc_.pages = pages_.size();
  if (node_pages_ != nullptr) {
    node_pages_->resize(tree_.size());
    for (DomNodeId v = 0; v < tree_.size(); ++v) {
      (*node_pages_)[v] = base_page_ + position[build_page_[v]];
    }
  }
  if (glue_pages_ != nullptr) {
    glue_pages_->clear();
    glue_pages_->reserve(cont_page_.size());
    for (const auto& [owner, idx] : cont_page_) {
      glue_pages_->emplace_back(owner, base_page_ + position[idx]);
    }
  }
  return doc_;
}

}  // namespace

Result<ImportedDocument> MaterializeDocument(
    const DomTree& tree, const ClusterAssignment& assignment,
    SimulatedDisk* disk, const ImportOptions& options,
    std::vector<PageId>* node_pages,
    std::vector<std::pair<DomNodeId, PageId>>* glue_pages) {
  NAVPATH_CHECK(disk != nullptr);
  Materializer m(tree, assignment, disk, options, node_pages, glue_pages);
  return m.Run();
}

}  // namespace navpath
