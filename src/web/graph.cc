#include "web/graph.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/strings.h"

namespace webdis::web {

namespace {

// Parses `html` as `doc`'s body and stores both at exact size: a page
// holds no growth slack (DESIGN.md §8). The parser already returns its text
// buffer at exact size.
void SetBody(WebGraph::Document* doc, std::string html) {
  doc->parsed = html::ParseDocument(doc->url, html);
  html.shrink_to_fit();
  doc->raw_html = std::move(html);
}

}  // namespace

Result<uint32_t> WebGraph::AddEntry(std::string_view url,
                                    html::Url* parsed_out) {
  WEBDIS_ASSIGN_OR_RETURN(*parsed_out, html::ParseUrl(url));
  const std::string key = parsed_out->ResourceKey();
  if (IdForKey(key) != common::StringInterner::kInvalidId) {
    return Status::InvalidArgument(
        StringPrintf("duplicate document '%s'", key.c_str()));
  }
  // A new key gets the next id, which is the next slot; a removed key
  // keeps its id and revives its tombstone.
  const uint32_t id = keys_.Intern(key);
  if (id == entries_.size()) entries_.emplace_back();
  const uint32_t host_id = hosts_.Intern(parsed_out->host);
  if (host_id == host_slots_.size()) host_slots_.emplace_back();
  DocEntry& entry = entries_[id];
  entry = DocEntry();  // a revived tombstone starts afresh
  entry.host_id = host_id;
  entry.live = true;
  entry.born_epoch = epoch_;
  host_slots_[host_id].entries.push_back(id);
  ++live_count_;
  return id;
}

Status WebGraph::AddDocument(std::string_view url, std::string html) {
  html::Url parsed_url;
  uint32_t id = 0;
  WEBDIS_ASSIGN_OR_RETURN(id, AddEntry(url, &parsed_url));
  DocEntry& entry = entries_[id];
  auto doc = std::make_unique<Document>();
  doc->url = std::move(parsed_url);
  SetBody(doc.get(), std::move(html));
  doc->born_epoch = entry.born_epoch;
  if (history_enabled_) {
    history_[{doc->url.ResourceKey(), doc->version}] = doc->raw_html;
  }
  entry.doc = std::move(doc);
  CountRendered(entry);
  return Status::OK();
}

void WebGraph::SetPageGenerator(PageGenerator generator) {
  generator_ = std::move(generator);
}

Status WebGraph::AddLazyDocument(std::string_view url, uint64_t aux0,
                                 uint64_t aux1) {
  html::Url parsed_url;
  uint32_t id = 0;
  WEBDIS_ASSIGN_OR_RETURN(id, AddEntry(url, &parsed_url));
  DocEntry& entry = entries_[id];
  entry.aux0 = aux0;
  entry.aux1 = aux1;
  if (history_enabled_) {
    // History needs every body; a lazy add during oracle recording is
    // rendered on the spot so the (key, version) record exists.
    const Document* doc = Materialize(id);
    history_[{doc->url.ResourceKey(), doc->version}] = doc->raw_html;
  }
  return Status::OK();
}

std::unique_ptr<WebGraph::Document> WebGraph::NewDocument(
    uint32_t id) const {
  auto parsed = html::ParseUrl(keys_.View(id));
  WEBDIS_CHECK(parsed.ok());  // the key round-trips: it was parsed at add
  auto doc = std::make_unique<Document>();
  doc->url = std::move(parsed).value();
  doc->born_epoch = entries_[id].born_epoch;
  return doc;
}

void WebGraph::CountRendered(const DocEntry& entry) const {
  if (entry.rendered) return;
  entry.rendered = true;
  ++materialized_;
}

const WebGraph::Document* WebGraph::Materialize(uint32_t id) const {
  const DocEntry& entry = entries_[id];
  if (entry.doc != nullptr) return entry.doc.get();
  if (slot_id_ != id) {
    WEBDIS_CHECK(generator_ != nullptr);
    std::unique_ptr<Document> doc = NewDocument(id);
    SetBody(doc.get(), generator_(keys_.View(id), entry.aux0, entry.aux1));
    slot_ = std::move(doc);  // the previous lazy page is freed here
    slot_id_ = id;
    CountRendered(entry);
  }
  return slot_.get();
}

uint32_t WebGraph::IdForKey(std::string_view key) const {
  const uint32_t id = keys_.Lookup(key);
  return id != common::StringInterner::kInvalidId && entries_[id].live
             ? id
             : common::StringInterner::kInvalidId;
}

uint32_t WebGraph::IdFor(std::string_view url) const {
  // Keys are fixpoints of ResourceKey∘ParseUrl (fuzz_url pins this), so a
  // URL that is itself a stored key names that key's entry: no parse.
  const uint32_t id = keys_.Lookup(url);
  if (id != common::StringInterner::kInvalidId) {
    return entries_[id].live ? id : common::StringInterner::kInvalidId;
  }
  auto parsed = html::ParseUrl(url);
  if (!parsed.ok()) return common::StringInterner::kInvalidId;
  return IdForKey(parsed->ResourceKey());
}

std::vector<uint32_t> WebGraph::SortedIds(std::vector<uint32_t> ids) const {
  std::sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) {
    return keys_.View(a) < keys_.View(b);
  });
  return ids;
}

void WebGraph::EraseEntry(uint32_t id) {
  DocEntry& entry = entries_[id];
  if (entry.rendered) --materialized_;
  entry.doc.reset();
  if (slot_id_ == id) {
    slot_.reset();
    slot_id_ = common::StringInterner::kInvalidId;
  }
  // Host lists are unordered: swap the id out with the last one. Searching
  // from the back makes RetireHost's back-to-front erasure O(1) each.
  std::vector<uint32_t>& on_host = host_slots_[entry.host_id].entries;
  *std::find(on_host.rbegin(), on_host.rend(), id) = on_host.back();
  on_host.pop_back();
  entry.live = false;  // tombstone
  --live_count_;
}

Status WebGraph::UpdateDocument(std::string_view url, std::string html) {
  html::Url parsed_url;
  WEBDIS_ASSIGN_OR_RETURN(parsed_url, html::ParseUrl(url));
  const std::string key = parsed_url.ResourceKey();
  const uint32_t id = IdForKey(key);
  if (id == common::StringInterner::kInvalidId) {
    return Status::InvalidArgument(
        StringPrintf("no such document '%s'", key.c_str()));
  }
  DocEntry& entry = entries_[id];
  if (entry.doc == nullptr) {
    // An edited lazy document owns its body from now on. The slot's body
    // moves over whole, so a pointer Find returned for it stays valid.
    if (slot_id_ == id) {
      entry.doc = std::move(slot_);
      slot_id_ = common::StringInterner::kInvalidId;
    } else {
      entry.doc = NewDocument(id);  // the old body is about to be replaced
    }
    CountRendered(entry);
  }
  Document* doc = entry.doc.get();
  SetBody(doc, std::move(html));
  ++doc->version;
  if (history_enabled_) {
    history_[{key, doc->version}] = doc->raw_html;
  }
  return Status::OK();
}

Status WebGraph::RemoveDocument(std::string_view url) {
  html::Url parsed_url;
  WEBDIS_ASSIGN_OR_RETURN(parsed_url, html::ParseUrl(url));
  const std::string key = parsed_url.ResourceKey();
  const uint32_t id = IdForKey(key);
  if (id == common::StringInterner::kInvalidId) {
    return Status::InvalidArgument(
        StringPrintf("no such document '%s'", key.c_str()));
  }
  EraseEntry(id);
  return Status::OK();
}

Status WebGraph::RetireHost(std::string_view host) {
  const uint32_t host_id = hosts_.Lookup(host);
  if (host_id == common::StringInterner::kInvalidId ||
      (host_slots_[host_id].entries.empty() &&
       !host_slots_[host_id].retired)) {
    return Status::InvalidArgument(
        StringPrintf("no documents on host '%.*s'",
                     static_cast<int>(host.size()), host.data()));
  }
  HostSlot& slot = host_slots_[host_id];
  while (!slot.entries.empty()) EraseEntry(slot.entries.back());
  slot.retired = true;
  return Status::OK();
}

bool WebGraph::HostRetired(std::string_view host) const {
  const uint32_t id = hosts_.Lookup(host);
  return id != common::StringInterner::kInvalidId && host_slots_[id].retired;
}

void WebGraph::EnableHistory() {
  if (history_enabled_) return;
  history_enabled_ = true;
  // Backfill current versions so every live (key, version) pair resolves —
  // rendering lazy documents, since history stores full bodies.
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    if (!entries_[id].live) continue;
    const Document* doc = Materialize(id);
    history_[{std::string(keys_.View(id)), doc->version}] = doc->raw_html;
  }
}

const std::string* WebGraph::HistoricalHtml(std::string_view url,
                                            uint64_t version) const {
  auto parsed = html::ParseUrl(url);
  if (!parsed.ok()) return nullptr;
  auto it = history_.find({parsed->ResourceKey(), version});
  return it == history_.end() ? nullptr : &it->second;
}

const WebGraph::Document* WebGraph::Find(std::string_view url) const {
  const uint32_t id = IdFor(url);
  return id == common::StringInterner::kInvalidId ? nullptr : Materialize(id);
}

uint64_t WebGraph::VersionOf(std::string_view url) const {
  const uint32_t id = IdFor(url);
  if (id == common::StringInterner::kInvalidId) return 0;
  const DocEntry& entry = entries_[id];
  return entry.doc != nullptr ? entry.doc->version : 1;
}

bool WebGraph::Has(std::string_view url) const {
  return IdFor(url) != common::StringInterner::kInvalidId;
}

std::vector<std::string> WebGraph::AllUrls() const {
  std::vector<uint32_t> ids;
  ids.reserve(live_count_);
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    if (entries_[id].live) ids.push_back(id);
  }
  std::vector<std::string> urls;
  urls.reserve(ids.size());
  for (uint32_t id : SortedIds(std::move(ids))) {
    urls.emplace_back(keys_.View(id));
  }
  return urls;
}

std::vector<std::string> WebGraph::Hosts() const {
  std::vector<std::string> hosts;
  for (uint32_t id = 0; id < host_slots_.size(); ++id) {
    if (!host_slots_[id].entries.empty()) hosts.emplace_back(hosts_.View(id));
  }
  std::sort(hosts.begin(), hosts.end());
  return hosts;
}

std::vector<std::string> WebGraph::UrlsOnHost(std::string_view host) const {
  std::vector<std::string> urls;
  const uint32_t host_id = hosts_.Lookup(host);
  if (host_id == common::StringInterner::kInvalidId) return urls;
  const std::vector<uint32_t>& on_host = host_slots_[host_id].entries;
  urls.reserve(on_host.size());
  for (uint32_t id : SortedIds(on_host)) urls.emplace_back(keys_.View(id));
  return urls;
}

size_t WebGraph::TotalHtmlBytes() const {
  size_t total = 0;
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    if (entries_[id].live) total += Materialize(id)->raw_html.size();
  }
  return total;
}

size_t WebGraph::ApproxTableBytes() const {
  size_t bytes = keys_.ApproxBytes() + hosts_.ApproxBytes();
  bytes += entries_.size() * sizeof(DocEntry);
  bytes += host_slots_.capacity() * sizeof(HostSlot);
  for (const HostSlot& slot : host_slots_) {
    bytes += slot.entries.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace webdis::web
