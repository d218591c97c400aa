#include "perfbench/src/lockstep.h"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <numeric>

namespace perfbench {

namespace {

// The daemon's routable-query rule: printable, non-blank ASCII.
bool Routable(std::string_view query) {
  for (unsigned char c : query) {
    if (c < 0x21 || c > 0x7e) {
      return false;
    }
  }
  return !query.empty();
}

bool SameRoute(const RouteView& a, const RouteView& b) {
  if (a.ok() != b.ok()) {
    return false;
  }
  return !a.ok() || (a.name == b.name && a.cost == b.cost && a.route == b.route);
}

}  // namespace

// ---- LockstepDriver ---------------------------------------------------------------

LockstepDriver::LockstepDriver(net::Daemon* daemon, const QueryPool* pool,
                               size_t requests_per_turn, size_t queries_per_request,
                               Tracer* tracer)
    : daemon_(daemon),
      pool_(pool),
      expected_(pool->expected),
      requests_per_turn_(requests_per_turn),
      queries_per_request_(queries_per_request),
      tracer_(tracer),
      buffer_(net::kMaxDatagramBytes) {}

bool LockstepDriver::Open(const std::string& client_path, std::string* error) {
  client_ = net::DatagramSocket::ClientForUnix(client_path, error);
  if (!client_.has_value()) {
    return false;
  }
  server_ = net::DatagramSocket::UnixPeer(daemon_->unix_path());
  return true;
}

void LockstepDriver::PlantWrongAnswer() {
  if (!pool_->stream.empty()) {
    expected_[pool_->stream.front()] ^= 1;
  }
}

void LockstepDriver::SendRequest(size_t first, size_t count, const Probe* probe,
                                 LoopCounters* counters) {
  Sent sent;
  sent.id = next_id_++;
  sent.start_ns = NowNs();
  sent.first = first;
  sent.count = count;
  sent.probe = probe != nullptr;
  queries_.clear();
  if (probe != nullptr) {
    queries_.push_back(probe->name);
  } else {
    for (size_t i = 0; i < count; ++i) {
      queries_.push_back(pool_->names[indices_[first + i]]);
    }
  }
  bool dropped = false;
  if (!net::EncodeRequest(sent.id, queries_, &datagram_) ||
      !client_->SendTo(datagram_, server_, &dropped)) {
    counters->failed += queries_.size();
    return;
  }
  sent_.push_back(sent);
}

void LockstepDriver::ReceiveReplies(LoopCounters* counters, bool record, const Probe* probe,
                                    ProbeReply* probe_reply) {
  size_t answered = 0;
  for (int attempt = 0; attempt < 2 && answered < sent_.size(); ++attempt) {
    if (attempt > 0) {
      daemon_->PollOnce(0);  // never expected: every reply is queued by now
    }
    for (;;) {
      net::PeerAddress from;
      bool got_one = false;
      ssize_t got = client_->Recv(buffer_.data(), buffer_.size(), &from, &got_one);
      if (!got_one) {
        break;
      }
      net::DecodedReply reply;
      std::string error;
      if (!net::DecodeReply(std::string_view(buffer_.data(), static_cast<size_t>(got)),
                            &reply, &error) ||
          sent_.empty() || reply.request_id < sent_.front().id ||
          reply.request_id > sent_.back().id) {
        continue;
      }
      Sent& sent = sent_[reply.request_id - sent_.front().id];
      if (sent.answered) {
        continue;
      }
      sent.answered = true;
      ++answered;
      const size_t asked = sent.probe ? 1 : sent.count;
      if ((reply.flags & (net::kReplyFlagOverloaded | net::kReplyFlagBadRequest)) != 0 ||
          reply.results.size() != asked) {
        counters->failed += asked;
      }
      size_t checked = std::min(asked, reply.results.size());
      for (size_t i = 0; i < checked; ++i) {
        const net::ReplyResult& result = reply.results[i];
        if (sent.probe) {
          bool has_route = result.status == net::kResultExact && result.via == probe->name;
          bool is_miss = result.status == net::kResultMiss;
          probe_reply->visible = probe->expect_route ? has_route : is_miss;
          if (!has_route && !is_miss) {  // neither the old outcome nor the new one
            ++counters->failed;
          }
          continue;
        }
        if (AnswerHash(result.status, result.via, result.route) !=
            expected_[indices_[sent.first + i]]) {
          ++counters->failed;
        }
        if (record) {
          (result.status == net::kResultExact    ? counters->exact
           : result.status == net::kResultSuffix ? counters->suffix
                                                 : counters->miss)++;
        }
      }
      int64_t done = NowNs();
      if (sent.probe) {
        probe_reply->done_ns = done;
      }
      if (record) {
        counters->latency.Record(done - sent.start_ns);
      }
    }
  }
  for (const Sent& sent : sent_) {
    if (!sent.answered) {
      counters->failed += sent.probe ? 1 : sent.count;
    }
  }
}

void LockstepDriver::RunTurn(LoopCounters* counters, bool record, const Probe* probe,
                             ProbeReply* probe_reply, const std::vector<uint32_t>& order,
                             size_t* cursor) {
  const int64_t turn_start = NowNs();
  sent_.clear();
  indices_.clear();
  uint64_t queries = 0;
  {
    Tracer::Span span(*tracer_, "driver.send");
    for (size_t r = 0; r < requests_per_turn_; ++r) {
      const bool is_probe = probe != nullptr && r + 1 == requests_per_turn_;
      size_t first = indices_.size();
      size_t count = is_probe ? 0 : queries_per_request_;
      for (size_t i = 0; i < count; ++i) {
        indices_.push_back(order[*cursor]);
        *cursor = *cursor + 1 == order.size() ? 0 : *cursor + 1;
      }
      SendRequest(first, count, is_probe ? probe : nullptr, counters);
      queries += is_probe ? 1 : count;
    }
  }
  int64_t poll_start = NowNs();
  {
    Tracer::Span span(*tracer_, "net.Daemon.PollOnce");
    daemon_->PollOnce(0);
  }
  int64_t poll_end = NowNs();
  last_poll_ns_ = poll_end - poll_start;
  {
    Tracer::Span span(*tracer_, "driver.receive");
    ReceiveReplies(counters, record, probe, probe_reply);
  }
  counters->queries += queries;
  if (record) {
    ++counters->turns;
    counters->poll_ns += poll_end - poll_start;
    counters->driver_ns += (NowNs() - turn_start) - (poll_end - poll_start);
    counters->windows.Tick(counters->queries - counters->failed);
  }
}

void LockstepDriver::Turn(LoopCounters* counters, bool record, const Probe* probe,
                          ProbeReply* probe_reply) {
  RunTurn(counters, record, probe, probe_reply, pool_->stream, &cursor_);
}

void LockstepDriver::WarmPass(LoopCounters* counters) {
  if (warm_order_.size() != pool_->names.size()) {
    warm_order_.resize(pool_->names.size());
    std::iota(warm_order_.begin(), warm_order_.end(), 0u);
  }
  size_t cursor = 0;
  size_t per_turn = requests_per_turn_ * queries_per_request_;
  for (size_t done = 0; done < warm_order_.size(); done += per_turn) {
    RunTurn(counters, /*record=*/false, nullptr, nullptr, warm_order_, &cursor);
  }
}

// ---- ShadowTurn -------------------------------------------------------------------

ShadowTurn::ShadowTurn(const QueryPool* pool, size_t requests_per_turn,
                       size_t queries_per_request, Tracer* tracer)
    : pool_(pool),
      requests_per_turn_(requests_per_turn),
      queries_per_request_(queries_per_request),
      tracer_(tracer),
      replay_(net::DaemonOptions().replay_entries, net::DaemonOptions().replay_bytes),
      cursor_(pool->stream.size() / 2),
      buffer_(net::kMaxDatagramBytes) {}

bool ShadowTurn::Open(const std::string& image_path, const exec::BatchEngineOptions& engine,
                      const std::string& dir, std::string* error) {
  image_path_ = image_path;
  auto image = FrozenImage::Open(image_path, image::ImageView::Verify::kStructure, error,
                                 /*readahead=*/true);
  if (!image.has_value()) {
    return false;
  }
  image_ = std::make_unique<FrozenImage>(std::move(*image));
  engine_ = std::make_unique<exec::FrozenBatchEngine>(&image_->routes(), engine);
  server_ = net::DatagramSocket::BindUnix(dir + "/shadow.sock", error);
  if (!server_.has_value()) {
    return false;
  }
  client_ = net::DatagramSocket::ClientForUnix(dir + "/shadow-client.sock", error);
  if (!client_.has_value()) {
    return false;
  }
  server_address_ = net::DatagramSocket::UnixPeer(dir + "/shadow.sock");
  return true;
}

bool ShadowTurn::Refresh(std::string* error) {
  auto opened = FrozenImage::Open(image_path_, image::ImageView::Verify::kStructure, error,
                                  /*readahead=*/true);
  if (!opened.has_value()) {
    return false;
  }
  auto fresh = std::make_unique<FrozenImage>(std::move(*opened));
  const FrozenRouteSet& old_routes = image_->routes();
  const FrozenRouteSet& new_routes = fresh->routes();
  const size_t old_names = old_routes.names().size();
  const size_t new_names = new_routes.names().size();
  const size_t common = std::min(old_names, new_names);
  std::vector<NameId> dirty;
  for (NameId id = 0; id < common; ++id) {
    if (!SameRoute(old_routes.FindRouteView(id), new_routes.FindRouteView(id))) {
      dirty.push_back(id);
    }
  }
  for (NameId id = static_cast<NameId>(common); id < new_names; ++id) {
    if (new_routes.HasRoute(id)) {
      dirty.push_back(id);
    }
  }
  engine_->AdoptRoutes(&fresh->routes(), dirty);
  image_ = std::move(fresh);
  return true;
}

int64_t ShadowTurn::Turn() {
  // The client side of the turn is the driver's work, not the daemon's: untimed.
  for (size_t r = 0; r < requests_per_turn_; ++r) {
    queries_.clear();
    for (size_t i = 0; i < queries_per_request_; ++i) {
      queries_.push_back(pool_->names[pool_->stream[cursor_]]);
      cursor_ = cursor_ + 1 == pool_->stream.size() ? 0 : cursor_ + 1;
    }
    bool dropped = false;
    if (net::EncodeRequest(next_id_++, queries_, &datagram_)) {
      client_->SendTo(datagram_, server_address_, &dropped);
    }
  }

  int64_t total = 0;
  auto timed = [&](const char* name, auto&& step) {
    int64_t start = NowNs();
    step();
    int64_t ns = NowNs() - start;
    tracer_->AddLeaf(name, ns);
    total += ns;
  };
  timed("net.poll", [&] {
    struct pollfd fd = {server_->fd(), POLLIN, 0};
    ::poll(&fd, 1, 0);
  });
  for (;;) {
    net::PeerAddress peer;
    bool got_one = false;
    ssize_t got = 0;
    timed("net.recv", [&] { got = server_->Recv(buffer_.data(), buffer_.size(), &peer, &got_one); });
    if (!got_one) {
      break;
    }
    net::DecodedRequest request;
    std::string why;
    uint64_t recovered_id = 0;
    bool decoded = false;
    timed("net.DecodeRequest", [&] {
      decoded = net::DecodeRequest(std::string_view(buffer_.data(), static_cast<size_t>(got)),
                                   &request, &why, &recovered_id);
    });
    if (!decoded) {
      continue;
    }
    timed("net.ReplayBuffer.Find", [&] { (void)replay_.Find(peer, request.request_id); });
    timed("net.RequestCoalescer", [&] { coalescer_.Add(peer, request.request_id, request.queries); });
  }
  if (coalescer_.empty()) {
    return total;
  }
  const std::vector<std::string_view>* batch = nullptr;
  timed("net.RequestCoalescer", [&] { batch = &coalescer_.Finish(); });
  results_.assign(batch->size(), BatchLookup{});
  int64_t resolve_start = NowNs();
  timed("exec.FrozenBatchEngine.ResolveBatch", [&] { engine_->ResolveBatch(*batch, results_); });
  resolve_ns_ += NowNs() - resolve_start;
  const FrozenRouteSet& routes = image_->routes();
  for (const net::RequestCoalescer::Pending& pending : coalescer_.pending()) {
    timed("net.EncodeReply", [&] {
      reply_results_.clear();
      for (size_t i = 0; i < pending.query_count; ++i) {
        size_t slot = pending.first_query + i;
        net::ReplyResult result;
        if (!Routable((*batch)[slot])) {
          result.status = net::kResultMalformed;
        } else if (results_[slot].route.ok()) {
          result.status = results_[slot].suffix_match ? net::kResultSuffix : net::kResultExact;
          result.via = routes.names().View(results_[slot].via);
          result.route = results_[slot].route.route;
        }
        reply_results_.push_back(result);
      }
      net::EncodeReply(pending.request_id, 0, pending.query_count, reply_results_,
                       net::kMaxDatagramBytes, &reply_);
    });
    timed("net.ReplayBuffer.Put", [&] { replay_.Put(pending.peer, pending.request_id, reply_); });
    timed("net.send", [&] {
      bool dropped = false;
      server_->SendTo(reply_, pending.peer, &dropped);
    });
  }
  coalescer_.Reset();

  // Drain the shadow client's replies (driver work again: untimed).
  for (;;) {
    net::PeerAddress from;
    bool got_one = false;
    client_->Recv(buffer_.data(), buffer_.size(), &from, &got_one);
    if (!got_one) {
      break;
    }
  }
  return total;
}

// ---- per-layer report ---------------------------------------------------------------

void ReportServingLayers(WorkloadResult* result, const Tracer& tracer,
                         const LoopCounters& untraced, net::Daemon& daemon,
                         int64_t shadow_resolve_ns, int64_t dissected_ns, int64_t poll_ns,
                         uint64_t turns, size_t requests_per_turn) {
  const double n_turns = static_cast<double>(std::max<uint64_t>(turns, 1));
  const double requests = n_turns * static_cast<double>(requests_per_turn);
  auto per_request_ns = [&](std::initializer_list<const char*> spans) {
    double total = 0.0;
    for (const char* span : spans) {
      total += tracer.Get(span).total_ns;
    }
    return total / requests;
  };
  const net::DaemonStats& stats = daemon.stats();
  MetricList& layers = result->layers;
  layers.Set("exec.resolve_us_per_turn", static_cast<double>(shadow_resolve_ns) / n_turns / 1e3,
             "us");
  layers.Set("exec.cache_hit_rate", daemon.engine()->stats().hit_rate(), "ratio");
  layers.Set("net.turn_us", static_cast<double>(poll_ns) / n_turns / 1e3, "us");
  layers.Set("net.queries_per_batch",
             stats.batches == 0 ? 0.0
                                : static_cast<double>(stats.queries) /
                                      static_cast<double>(stats.batches),
             "count");
  layers.Set("net.recv_ns", per_request_ns({"net.poll", "net.recv"}), "ns");
  layers.Set("net.decode_ns", per_request_ns({"net.DecodeRequest"}), "ns");
  layers.Set("net.coalesce_ns", per_request_ns({"net.RequestCoalescer"}), "ns");
  layers.Set("net.encode_ns", per_request_ns({"net.EncodeReply"}), "ns");
  layers.Set("net.replay_put_ns", per_request_ns({"net.ReplayBuffer.Put"}), "ns");
  layers.Set("net.send_ns", per_request_ns({"net.send"}), "ns");
  layers.Set("net.send_drops", static_cast<double>(stats.send_drops), "count");
  layers.Set("net.overload_replies", static_cast<double>(stats.overload_replies), "count");
  layers.Set("net.truncated_replies", static_cast<double>(stats.truncated_replies), "count");
  layers.Set("net.bad_datagrams", static_cast<double>(stats.bad_datagrams), "count");
  layers.Set("net.reload_errors", static_cast<double>(stats.reload_errors), "count");
  layers.Set("driver.overhead_us",
             static_cast<double>(untraced.driver_ns) /
                 static_cast<double>(std::max<uint64_t>(untraced.turns, 1)) / 1e3,
             "us");
  const double answers = static_cast<double>(
      std::max<uint64_t>(untraced.exact + untraced.suffix + untraced.miss, 1));
  layers.Set("route_db.resolved_frac",
             static_cast<double>(untraced.exact + untraced.suffix) / answers, "ratio");
  layers.Set("route_db.suffix_frac", static_cast<double>(untraced.suffix) / answers, "ratio");
  layers.Set("trace.parts_frac",
             ReportAddUp(result, "dissected daemon turn vs net.turn_us",
                         static_cast<double>(dissected_ns) / n_turns,
                         static_cast<double>(poll_ns) / n_turns, 0.25),
             "ratio");
  char line[160];
  std::snprintf(line, sizeof(line),
                "dissected turn per request: replay-buffer find %.0f ns (the daemon's dedup probe)",
                per_request_ns({"net.ReplayBuffer.Find"}));
  result->report.push_back(line);
}

}  // namespace perfbench
