// Deterministic XMark-shaped document generator.
//
// Reproduces the structural element distribution of the XMark benchmark
// documents [Schmidt et al., VLDB 2002] that the paper's evaluation
// queries touch: the region/item hierarchy (Q6'), description/annotation/
// email prose (Q7), and the recursive parlist/listitem/text markup under
// closed-auction annotations (Q15). xmlgen itself is not available
// offline; this generator substitutes deterministic synthetic text while
// keeping element counts proportional to xmlgen's per-scale-factor counts
// (21750 items, 25500 persons, 12000 open / 9750 closed auctions at
// scale 1). Character data is shorter than xmlgen's so experiments stay
// laptop-sized; the queries only count/navigate elements, so this is a
// pure constant factor on document bytes.
//
// One deliberate naming deviation: persons carry an <email> element (the
// paper's Q7 queries /site//email; real XMark calls it emailaddress).
#ifndef NAVPATH_XMARK_GENERATOR_H_
#define NAVPATH_XMARK_GENERATOR_H_

#include <cstdint>

#include "xml/dom.h"

namespace navpath {

struct XMarkOptions {
  /// Scale factor (the paper sweeps 0.1 .. 2.0); element counts scale
  /// XMark's published per-scale-1 proportions.
  double scale = 1.0;
  std::uint64_t seed = 42;
};

/// Generates a document. The tree uses `tags` for interning and has order
/// keys assigned.
DomTree GenerateXMark(const XMarkOptions& options, TagRegistry* tags);

}  // namespace navpath

#endif  // NAVPATH_XMARK_GENERATOR_H_
