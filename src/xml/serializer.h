// XML serializer for DomTree (round-tripping and examples).
#ifndef NAVPATH_XML_SERIALIZER_H_
#define NAVPATH_XML_SERIALIZER_H_

#include <string>
#include <string_view>

#include "xml/dom.h"

namespace navpath {

/// Serializes `tree` (or the subtree rooted at `root`) to XML text.
std::string SerializeXml(const DomTree& tree);
std::string SerializeSubtree(const DomTree& tree, DomNodeId root);

/// Appends `text` as character content, escaping &, <, > (shared with
/// the store's exporters).
void AppendEscapedXmlText(std::string_view text, std::string* out);

/// Appends an attribute value, escaping &, <, ".
void AppendEscapedXmlAttribute(std::string_view value, std::string* out);

}  // namespace navpath

#endif  // NAVPATH_XML_SERIALIZER_H_
