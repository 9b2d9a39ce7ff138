#include "spans.h"

#include <unordered_map>

#include "common/check.h"
#include "common/json.h"

namespace glbench {

std::uint64_t Tracer::Ns(Clock::time_point t) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
}

std::uint32_t Tracer::Open(const char* name, std::int64_t run, Clock::time_point at) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.run = run;
  s.name = name;
  s.start_ns = Ns(at);
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void Tracer::Close(std::uint32_t id, Clock::time_point at) {
  GLB_CHECK(!open_.empty() && open_.back() == id) << "span " << id << " closed out of order";
  open_.pop_back();
  spans_[id - 1].end_ns = Ns(at);
}

std::map<std::string, SpanTotals> Tracer::Totals(std::size_t first, std::size_t last) const {
  std::unordered_map<std::uint32_t, std::uint64_t> child_ns;
  for (std::size_t i = first; i < last; ++i) {
    if (spans_[i].parent != 0) child_ns[spans_[i].parent] += spans_[i].duration_ns();
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans_[i];
    SpanTotals& t = out[s.name];
    t.total_ns += s.duration_ns();
    t.self_ns += s.duration_ns() - child_ns[s.id];
  }
  return out;
}

void Tracer::Write(std::ostream& os) const {
  glb::json::Writer w(os);
  w.BeginObject();
  w.Field("schema", "glbench.spans");
  w.Field("version", std::uint64_t{1});
  w.Key("spans");
  w.BeginArray();
  for (const Span& s : spans_) {
    w.BeginObject();
    w.Field("id", s.id);
    w.Field("parent", s.parent);
    w.Field("run", s.run);
    w.Field("name", s.name);
    w.Field("start_ns", s.start_ns);
    w.Field("end_ns", s.end_ns);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << "\n";
}

}  // namespace glbench
