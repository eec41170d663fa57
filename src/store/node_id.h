// NodeIDs: persistent node addresses (Sec. 3.2 Example 2).
//
// A NodeID is a record id: the page that stores the record plus the slot
// within that page. The page number doubles as the cluster id (Sec. 3.3:
// the cluster a node belongs to is deducible from its NodeID).
#ifndef NAVPATH_STORE_NODE_ID_H_
#define NAVPATH_STORE_NODE_ID_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/flat_set.h"
#include "storage/page.h"

namespace navpath {

using SlotId = std::uint16_t;
constexpr SlotId kInvalidSlot = 0xFFFF;

struct NodeID {
  PageId page = kInvalidPageId;
  SlotId slot = kInvalidSlot;

  bool valid() const { return page != kInvalidPageId; }

  /// The cluster this node belongs to (Sec. 3.3: clusters are pages).
  PageId cluster() const { return page; }

  std::uint64_t Pack() const {
    return (static_cast<std::uint64_t>(page) << 16) | slot;
  }
  static NodeID Unpack(std::uint64_t packed) {
    return NodeID{static_cast<PageId>(packed >> 16),
                  static_cast<SlotId>(packed & 0xFFFF)};
  }

  friend bool operator==(const NodeID& a, const NodeID& b) {
    return a.page == b.page && a.slot == b.slot;
  }
  friend bool operator!=(const NodeID& a, const NodeID& b) {
    return !(a == b);
  }
  friend bool operator<(const NodeID& a, const NodeID& b) {
    return a.Pack() < b.Pack();
  }

  std::string ToString() const {
    return "(" + std::to_string(page) + "." + std::to_string(slot) + ")";
  }
};

constexpr NodeID kInvalidNodeID{};

struct NodeIDHash {
  std::size_t operator()(const NodeID& id) const {
    return static_cast<std::size_t>(SplitMix64(id.Pack()));
  }
};

}  // namespace navpath

#endif  // NAVPATH_STORE_NODE_ID_H_
