#include "trace.h"

#include "common/json.h"

namespace perfbench {

using qagview::json::Json;

void Tracer::Merge(const Tracer& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::vector<int64_t> self_ns(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self_ns[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self_ns[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self_ns[i]) / 1e6;
  }
  return out;
}

std::string Tracer::ToJson() const {
  Json spans = Json::Array();
  for (const Span& span : spans_) {
    Json item = Json::Object();
    item.Set("name", Json::Str(span.name));
    item.Set("start_ns", Json::Int(span.start_ns));
    item.Set("end_ns", Json::Int(span.end_ns));
    item.Set("parent", Json::Int(span.parent));
    item.Set("op", Json::Int(span.op));
    spans.Append(std::move(item));
  }
  Json self = Json::Object();
  for (const auto& [name, ms] : SelfMs()) self.Set(name, Json::Number(ms));
  Json out = Json::Object();
  out.Set("spans", std::move(spans));
  out.Set("self_ms", std::move(self));
  return out.Dump();
}

}  // namespace perfbench
