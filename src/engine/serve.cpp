#include "engine/serve.hpp"

#include <exception>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "report/json_util.hpp"

namespace nocsched::engine {

std::string result_json(const PlanResult& result) {
  if (!result.ok) return error_json(result.id, result.error);
  std::string out = cat("{\"id\": ", report::json_string(result.id), ", \"ok\": true");
  out += cat(", \"soc\": ", report::json_string(result.context->system().soc().name));
  out += cat(", \"makespan\": ", result.schedule.makespan);
  out += cat(", \"peak_power\": ", report::json_number(result.schedule.peak_power));
  out += cat(", \"sessions\": ", result.schedule.sessions.size());
  if (result.search_metrics) {
    const obs::MetricsSnapshot& m = *result.search_metrics;
    out += cat(", \"search\": {\"strategy\": ", report::json_string(m.info_or("search.strategy")),
               ", \"evaluations\": ", m.counter_or("search.evaluations"),
               ", \"first_makespan\": ", m.gauge_or("search.first_makespan"),
               ", \"best_makespan\": ", m.gauge_or("search.best_makespan"), "}");
  }
  if (result.faulted) {
    out += cat(", \"dead\": ", report::json_int_array(result.dead_modules),
               ", \"untestable\": ", report::json_int_array(result.untestable_modules),
               ", \"pairs_rebuilt\": ", result.pairs_rebuilt);
  }
  if (result.cross_check) {
    out += cat(", \"observed_makespan\": ", result.cross_check->observed_makespan,
               ", \"cross_check_ok\": ", result.cross_check->ok() ? "true" : "false");
  }
  out += "}";
  return out;
}

std::string error_json(const std::string& id, const std::string& message) {
  return cat("{\"id\": ", report::json_string(id), ", \"ok\": false, \"error\": ",
             report::json_string(message), "}");
}

int serve(std::istream& in, std::ostream& out, const ServeOptions& options) {
  ensure(options.batch > 0, "serve: batch size must be at least 1");
  Engine engine(EngineOptions{options.cache_capacity, options.jobs});
  obs::MetricsRegistry& reg = obs::registry();

  // One queued input line: a parsed request (by batch index) or a
  // ready-to-emit parse-error object.  Output order is input order.
  struct Item {
    std::size_t index = 0;  ///< into the batch's request vector
    std::string error_line;  ///< non-empty: emit this instead
  };
  std::vector<PlanRequest> requests;
  std::vector<Item> items;

  auto flush = [&] {
    if (items.empty()) return;
    const bool collect = reg.enabled();
    const double start_ms = collect ? obs::now_ms() : 0.0;
    const std::vector<PlanResult> results = engine.run_batch(requests);
    for (const Item& item : items) {
      if (!item.error_line.empty()) {
        out << item.error_line << "\n";
      } else {
        const PlanResult& result = results[item.index];
        if (collect && !result.ok) reg.counter("serve.request_errors").inc();
        out << result_json(result) << "\n";
      }
    }
    out.flush();
    if (collect) {
      reg.counter("serve.batches").inc();
      reg.counter("serve.results").add(items.size());
      reg.set_wall_ms("wall.serve.last_batch_ms", obs::now_ms() - start_ms);
    }
    requests.clear();
    items.clear();
  };

  std::string raw;
  std::size_t line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const std::string_view text = trim(raw);
    if (text.empty()) continue;
    if (reg.enabled()) reg.counter("serve.requests").inc();
    Item item;
    try {
      PlanRequest request = parse_request(text, options.source, line);
      item.index = requests.size();
      requests.push_back(std::move(request));
    } catch (const std::exception& e) {
      if (reg.enabled()) reg.counter("serve.parse_errors").inc();
      item.error_line = error_json(cat("line-", line), e.what());
    }
    items.push_back(std::move(item));
    if (items.size() >= options.batch) flush();
  }
  flush();
  return 0;
}

}  // namespace nocsched::engine
