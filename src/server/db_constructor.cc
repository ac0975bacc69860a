#include "server/db_constructor.h"

#include "common/logging.h"

namespace webdis::server {

namespace {

using relational::Table;
using relational::Tuple;
using relational::Value;

void MustInsert(Table* table, Tuple tuple) {
  const Status status = table->Insert(std::move(tuple));
  WEBDIS_CHECK(status.ok()) << status.ToString();
}

}  // namespace

relational::Database BuildNodeDatabase(const html::ParsedDocument& doc) {
  relational::Database db;

  Table document(relational::DocumentSchema());
  MustInsert(&document,
             {Value(doc.url.ResourceKey()), Value(doc.title), Value(doc.text),
              Value(static_cast<int64_t>(doc.length))});
  db.Put(std::string(relational::kDocumentRelation), std::move(document));

  Table anchor(relational::AnchorSchema());
  for (const html::ParsedAnchor& a : doc.anchors) {
    MustInsert(&anchor,
               {Value(a.label), Value(doc.url.ResourceKey()),
                Value(a.resolved.ResourceKey()),
                Value(std::string(1, html::LinkTypeSymbol(a.ltype)))});
  }
  db.Put(std::string(relational::kAnchorRelation), std::move(anchor));

  Table relinfon(relational::RelInfonSchema());
  for (const html::ParsedRelInfon& r : doc.rel_infons) {
    MustInsert(&relinfon,
               {Value(std::string(r.delimiter)), Value(doc.url.ResourceKey()),
                Value(std::string(doc.RelInfonText(r))),
                Value(static_cast<int64_t>(r.size))});
  }
  db.Put(std::string(relational::kRelInfonRelation), std::move(relinfon));

  return db;
}

}  // namespace webdis::server
