// Document import: materializes a DOM into clustered tree pages.
//
// The materializer honors a ClusteringPolicy's proposed assignment as far
// as page capacity allows. Where a proposed cluster overflows its page, it
// splits the node's child list with a *continuation* border pair: the
// down-border ends the chain segment in the full page and its up-border
// partner acts as the physical parent of the remaining children in a fresh
// page. (This is the role Natix's helper/proxy nodes play; the paper's
// per-edge border-node model is the special case of a fragment with one
// child.) Space accounting is exact: every core record placed in a page
// reserves room for one potential continuation down-border so a split is
// always possible.
#ifndef NAVPATH_STORE_IMPORT_H_
#define NAVPATH_STORE_IMPORT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/disk.h"
#include "store/clustering.h"
#include "store/node_id.h"
#include "xml/dom.h"

namespace navpath {

struct ImportedDocument {
  NodeID root;
  std::uint64_t root_order = 0;
  /// The document's pages occupy the contiguous disk range
  /// [first_page, last_page] in materialization order.
  PageId first_page = kInvalidPageId;
  PageId last_page = kInvalidPageId;

  std::uint64_t core_records = 0;
  std::uint64_t attribute_records = 0;
  std::uint64_t border_pairs = 0;         // total crossings (incl. below)
  std::uint64_t continuation_pairs = 0;   // crossings from chain splits
  std::uint64_t pages = 0;

  PageId page_count() const {
    return first_page == kInvalidPageId ? 0 : last_page - first_page + 1;
  }
};

struct ImportOptions {
  /// Character content is truncated to this many stored bytes per node.
  std::size_t text_cap = 2048;

  /// Physical fragmentation of the layout: the fraction of pages that are
  /// displaced from their creation-order position (swapped with a page up
  /// to 64 slots ahead, deterministically).
  ///
  /// Our materializer writes pages in depth-first creation order, which
  /// is an unrealistically perfect layout: real imports (Natix splits
  /// overflowing pages to the end of the segment) and incremental updates
  /// scatter logically adjacent pages (paper Sec. 1). Benchmarks run with
  /// a fragmented layout; 0.0 keeps the pristine order.
  double fragmentation = 0.0;

  /// Build the path-summary synopsis at import (Database::Import). The
  /// summary gives the planner exact cardinalities, empty-path proofs and
  /// navigation-free count()/existence answers on predicate-free paths;
  /// off reproduces pre-summary behavior byte-for-byte.
  bool build_summary = true;
};

/// Builds pages for `tree` under `assignment` and writes them to `disk`.
/// The caller typically resets the simulated clock and metrics afterwards
/// (import cost is not part of any measured query).
///
/// When `node_pages` is non-null it is resized to tree.size() and filled
/// with the final physical page of every DOM node's core (or attribute)
/// record — placement page with the fragmentation permutation applied.
/// The path-summary synopsis derives its cluster extents from this.
///
/// When `glue_pages` is non-null it receives one (owner, page) pair per
/// continuation split: the fresh page holds the up-border that extends
/// `owner`'s child list, so border records linking owner's children may
/// live there without any record of owner itself. The synopsis must count
/// such pages among owner's extents or a restricted sweep would skip the
/// glue that cross-page assembly needs.
Result<ImportedDocument> MaterializeDocument(
    const DomTree& tree, const ClusterAssignment& assignment,
    SimulatedDisk* disk, const ImportOptions& options = {},
    std::vector<PageId>* node_pages = nullptr,
    std::vector<std::pair<DomNodeId, PageId>>* glue_pages = nullptr);

}  // namespace navpath

#endif  // NAVPATH_STORE_IMPORT_H_
