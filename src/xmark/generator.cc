#include "xmark/generator.h"

#include <algorithm>
#include <array>
#include <string>

#include "common/random.h"

namespace navpath {
namespace {

// Word pool in the spirit of xmlgen's Shakespeare-derived vocabulary.
constexpr std::array<const char*, 48> kWords = {
    "gold",     "market",  "duteous", "cunning", "honour",  "ladder",
    "vantage",  "gentle",  "mortal",  "fortune", "summer",  "winter",
    "promise",  "silver",  "castle",  "voyage",  "garden",  "shadow",
    "whisper",  "counsel", "herald",  "sonnet",  "tempest", "crown",
    "feather",  "lantern", "harbour", "meadow",  "ribbon",  "saddle",
    "scepter",  "tavern",  "minstrel","falcon",  "orchard", "quarrel",
    "banner",   "goblet",  "hamlet",  "ivory",   "jester",  "knight",
    "lattice",  "mirror",  "needle",  "oracle",  "pennant", "quiver"};

constexpr std::array<const char*, 6> kRegions = {
    "africa", "asia", "australia", "europe", "namerica", "samerica"};

// Element counts at scale 1 (XMark's published proportions).
constexpr std::uint32_t kItems = 21750;
constexpr std::uint32_t kPersons = 25500;
constexpr std::uint32_t kOpenAuctions = 12000;
constexpr std::uint32_t kClosedAuctions = 9750;
constexpr std::uint32_t kCategories = 1000;

// Structure probabilities (chosen to reproduce XMark's query
// selectivities: Q7 touches a large fraction of the document, Q15 a tiny
// one).
constexpr double kDescriptionIsParlist = 0.6;
constexpr double kNestedParlist = 0.35;
constexpr double kTextHasEmph = 0.35;
constexpr double kEmphHasKeyword = 0.35;
constexpr double kKeywordHasBold = 0.35;

// XMark's per-region item shares at scale 1 (sums to 21750/21750).
constexpr std::array<double, 6> kRegionShare = {550.0 / 21750,  2000.0 / 21750,
                                                2200.0 / 21750, 6000.0 / 21750,
                                                10000.0 / 21750,
                                                1000.0 / 21750};

class Generator {
 public:
  Generator(const XMarkOptions& options, TagRegistry* tags)
      : options_(options), tags_(tags), tree_(tags), rng_(options.seed) {}

  DomTree Run() {
    const DomNodeId site = tree_.CreateRoot(Tag("site"));
    GenRegions(site);
    GenCategories(site);
    GenPeople(site);
    GenOpenAuctions(site);
    GenClosedAuctions(site);
    tree_.AssignOrderKeys();
    return std::move(tree_);
  }

 private:
  TagId Tag(const char* name) { return tags_->Intern(name); }

  std::uint32_t Scaled(std::uint32_t base) {
    const double scaled = static_cast<double>(base) * options_.scale;
    return static_cast<std::uint32_t>(std::max(1.0, scaled));
  }

  std::string Words(int min_words, int max_words) {
    const int n = static_cast<int>(rng_.NextInRange(min_words, max_words));
    std::string out;
    for (int i = 0; i < n; ++i) {
      if (i > 0) out += ' ';
      out += kWords[rng_.NextBounded(kWords.size())];
    }
    return out;
  }

  DomNodeId Leaf(DomNodeId parent, const char* tag, int min_w, int max_w) {
    const DomNodeId n = tree_.AppendChild(parent, Tag(tag));
    tree_.AppendText(n, Words(min_w, max_w));
    return n;
  }

  /// <text> with optional nested inline markup (emph/keyword/bold chains —
  /// the tail of Q15).
  void GenText(DomNodeId parent) {
    const DomNodeId text = tree_.AppendChild(parent, Tag("text"));
    tree_.AppendText(text, Words(4, 14));
    if (rng_.NextBool(kTextHasEmph)) {
      const DomNodeId emph = Leaf(text, "emph", 1, 3);
      if (rng_.NextBool(kEmphHasKeyword)) {
        const DomNodeId keyword = Leaf(emph, "keyword", 1, 3);
        if (rng_.NextBool(kKeywordHasBold)) {
          Leaf(keyword, "bold", 1, 2);
        }
      }
    }
    if (rng_.NextBool(0.15)) Leaf(text, "keyword", 1, 3);
  }

  void GenParlist(DomNodeId parent, int depth) {
    const DomNodeId parlist = tree_.AppendChild(parent, Tag("parlist"));
    const int items = static_cast<int>(rng_.NextInRange(2, 4));
    for (int i = 0; i < items; ++i) {
      const DomNodeId listitem = tree_.AppendChild(parlist, Tag("listitem"));
      if (depth < 2 && rng_.NextBool(kNestedParlist)) {
        GenParlist(listitem, depth + 1);
      } else {
        GenText(listitem);
      }
    }
  }

  /// <description>: either flat text or a recursive parlist (Q7 counts
  /// these; Q15 digs through the parlist variant).
  void GenDescription(DomNodeId parent) {
    const DomNodeId description =
        tree_.AppendChild(parent, Tag("description"));
    if (rng_.NextBool(kDescriptionIsParlist)) {
      GenParlist(description, 0);
    } else {
      GenText(description);
    }
  }

  void GenItem(DomNodeId region, std::uint32_t categories) {
    const DomNodeId item = tree_.AppendChild(region, Tag("item"));
    tree_.AddAttribute(item, Tag("id"),
                       "item" + std::to_string(item_counter_++));
    tree_.AddAttribute(item, Tag("featured"),
                       rng_.NextBool(0.1) ? "yes" : "no");
    Leaf(item, "location", 1, 2);
    Leaf(item, "quantity", 1, 1);
    Leaf(item, "name", 2, 3);
    Leaf(item, "payment", 2, 4);
    GenDescription(item);
    Leaf(item, "shipping", 3, 6);
    const int cats = static_cast<int>(rng_.NextInRange(1, 3));
    for (int i = 0; i < cats; ++i) {
      const DomNodeId inc = tree_.AppendChild(item, Tag("incategory"));
      tree_.AddAttribute(inc, Tag("category"),
                         "category" +
                             std::to_string(rng_.NextBounded(
                                 std::max<std::uint32_t>(1, categories))));
    }
    const DomNodeId mailbox = tree_.AppendChild(item, Tag("mailbox"));
    const int mails = static_cast<int>(rng_.NextInRange(0, 2));
    for (int i = 0; i < mails; ++i) {
      const DomNodeId mail = tree_.AppendChild(mailbox, Tag("mail"));
      Leaf(mail, "from", 2, 2);
      Leaf(mail, "to", 2, 2);
      Leaf(mail, "date", 1, 1);
      GenText(mail);
    }
  }

  void GenRegions(DomNodeId site) {
    const DomNodeId regions = tree_.AppendChild(site, Tag("regions"));
    const std::uint32_t total_items = Scaled(kItems);
    const std::uint32_t categories = Scaled(kCategories);
    for (std::size_t r = 0; r < kRegions.size(); ++r) {
      const DomNodeId region = tree_.AppendChild(regions, Tag(kRegions[r]));
      const auto count = static_cast<std::uint32_t>(std::max(
          1.0, kRegionShare[r] * static_cast<double>(total_items)));
      for (std::uint32_t i = 0; i < count; ++i) GenItem(region, categories);
    }
  }

  void GenCategories(DomNodeId site) {
    const DomNodeId categories = tree_.AppendChild(site, Tag("categories"));
    const std::uint32_t count = Scaled(kCategories);
    for (std::uint32_t i = 0; i < count; ++i) {
      const DomNodeId category = tree_.AppendChild(categories, Tag("category"));
      tree_.AddAttribute(category, Tag("id"),
                         "category" + std::to_string(i));
      Leaf(category, "name", 1, 2);
      GenDescription(category);
    }
    const DomNodeId catgraph = tree_.AppendChild(site, Tag("catgraph"));
    for (std::uint32_t i = 0; i < count; ++i) {
      if (rng_.NextBool(0.5)) {
        const DomNodeId edge = tree_.AppendChild(catgraph, Tag("edge"));
        tree_.AddAttribute(edge, Tag("from"),
                           "category" + std::to_string(rng_.NextBounded(
                                            std::max(1u, count))));
        tree_.AddAttribute(edge, Tag("to"),
                           "category" + std::to_string(rng_.NextBounded(
                                            std::max(1u, count))));
      }
    }
  }

  void GenPeople(DomNodeId site) {
    const DomNodeId people = tree_.AppendChild(site, Tag("people"));
    const std::uint32_t count = Scaled(kPersons);
    for (std::uint32_t i = 0; i < count; ++i) {
      const DomNodeId person = tree_.AppendChild(people, Tag("person"));
      tree_.AddAttribute(person, Tag("id"), "person" + std::to_string(i));
      Leaf(person, "name", 2, 2);
      // The paper's Q7 counts /site//email.
      Leaf(person, "email", 1, 1);
      if (rng_.NextBool(0.5)) Leaf(person, "phone", 1, 1);
      if (rng_.NextBool(0.4)) {
        const DomNodeId address = tree_.AppendChild(person, Tag("address"));
        Leaf(address, "street", 2, 3);
        Leaf(address, "city", 1, 1);
        Leaf(address, "country", 1, 1);
        Leaf(address, "zipcode", 1, 1);
      }
      if (rng_.NextBool(0.3)) Leaf(person, "homepage", 1, 1);
      if (rng_.NextBool(0.25)) Leaf(person, "creditcard", 1, 1);
      if (rng_.NextBool(0.5)) {
        const DomNodeId profile = tree_.AppendChild(person, Tag("profile"));
        const int interests = static_cast<int>(rng_.NextInRange(0, 3));
        for (int j = 0; j < interests; ++j) {
          Leaf(profile, "interest", 1, 1);
        }
        if (rng_.NextBool(0.6)) Leaf(profile, "education", 1, 2);
        if (rng_.NextBool(0.8)) Leaf(profile, "gender", 1, 1);
        Leaf(profile, "business", 1, 1);
        if (rng_.NextBool(0.6)) Leaf(profile, "age", 1, 1);
      }
      if (rng_.NextBool(0.3)) {
        const DomNodeId watches = tree_.AppendChild(person, Tag("watches"));
        const int n = static_cast<int>(rng_.NextInRange(1, 3));
        for (int j = 0; j < n; ++j) Leaf(watches, "watch", 1, 1);
      }
    }
  }

  void GenAnnotation(DomNodeId parent) {
    const DomNodeId annotation = tree_.AppendChild(parent, Tag("annotation"));
    Leaf(annotation, "author", 2, 2);
    GenDescription(annotation);
    Leaf(annotation, "happiness", 1, 1);
  }

  void GenOpenAuctions(DomNodeId site) {
    const DomNodeId auctions = tree_.AppendChild(site, Tag("open_auctions"));
    const std::uint32_t count = Scaled(kOpenAuctions);
    for (std::uint32_t i = 0; i < count; ++i) {
      const DomNodeId auction =
          tree_.AppendChild(auctions, Tag("open_auction"));
      tree_.AddAttribute(auction, Tag("id"),
                         "open_auction" + std::to_string(i));
      Leaf(auction, "initial", 1, 1);
      const int bidders = static_cast<int>(rng_.NextInRange(0, 4));
      for (int j = 0; j < bidders; ++j) {
        const DomNodeId bidder = tree_.AppendChild(auction, Tag("bidder"));
        Leaf(bidder, "date", 1, 1);
        Leaf(bidder, "time", 1, 1);
        const DomNodeId personref =
            tree_.AppendChild(bidder, Tag("personref"));
        tree_.AddAttribute(
            personref, Tag("person"),
            "person" + std::to_string(rng_.NextBounded(
                           std::max(1u, Scaled(kPersons)))));
        Leaf(bidder, "increase", 1, 1);
      }
      Leaf(auction, "current", 1, 1);
      if (rng_.NextBool(0.4)) Leaf(auction, "privacy", 1, 1);
      Leaf(auction, "itemref", 1, 1);
      Leaf(auction, "seller", 1, 1);
      GenAnnotation(auction);
      Leaf(auction, "quantity", 1, 1);
      Leaf(auction, "type", 1, 2);
      const DomNodeId interval = tree_.AppendChild(auction, Tag("interval"));
      Leaf(interval, "start", 1, 1);
      Leaf(interval, "end", 1, 1);
    }
  }

  void GenClosedAuctions(DomNodeId site) {
    const DomNodeId auctions =
        tree_.AppendChild(site, Tag("closed_auctions"));
    const std::uint32_t count = Scaled(kClosedAuctions);
    for (std::uint32_t i = 0; i < count; ++i) {
      const DomNodeId auction =
          tree_.AppendChild(auctions, Tag("closed_auction"));
      const DomNodeId seller = tree_.AppendChild(auction, Tag("seller"));
      tree_.AddAttribute(
          seller, Tag("person"),
          "person" + std::to_string(rng_.NextBounded(
                         std::max(1u, Scaled(kPersons)))));
      const DomNodeId buyer = tree_.AppendChild(auction, Tag("buyer"));
      tree_.AddAttribute(
          buyer, Tag("person"),
          "person" + std::to_string(rng_.NextBounded(
                         std::max(1u, Scaled(kPersons)))));
      const DomNodeId itemref = tree_.AppendChild(auction, Tag("itemref"));
      tree_.AddAttribute(
          itemref, Tag("item"),
          "item" + std::to_string(rng_.NextBounded(
                       std::max(1u, Scaled(kItems)))));
      Leaf(auction, "price", 1, 1);
      Leaf(auction, "date", 1, 1);
      Leaf(auction, "quantity", 1, 1);
      Leaf(auction, "type", 1, 2);
      GenAnnotation(auction);
    }
  }

  XMarkOptions options_;
  TagRegistry* tags_;
  DomTree tree_;
  Random rng_;
  std::uint32_t item_counter_ = 0;
};

}  // namespace

DomTree GenerateXMark(const XMarkOptions& options, TagRegistry* tags) {
  NAVPATH_CHECK(tags != nullptr);
  Generator gen(options, tags);
  return gen.Run();
}

}  // namespace navpath
