#include "engine/serve.hpp"

#include <exception>
#include <istream>
#include <ostream>
#include <string>
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
  // Appends only: the success path formats no stream.
  std::string out = "{\"id\": ";
  out += report::json_string(result.id);
  out += ", \"ok\": true, \"soc\": ";
  out += report::json_string(result.context->system().soc().name);
  out += ", \"makespan\": ";
  out += std::to_string(result.schedule.makespan);
  out += ", \"peak_power\": ";
  report::append_json_number(out, result.schedule.peak_power);
  out += ", \"sessions\": ";
  out += std::to_string(result.schedule.sessions.size());
  if (result.search_metrics) {
    const obs::MetricsSnapshot& m = *result.search_metrics;
    out += ", \"search\": {\"strategy\": ";
    out += report::json_string(m.info_or("search.strategy"));
    out += ", \"evaluations\": ";
    out += std::to_string(m.counter_or("search.evaluations"));
    out += ", \"first_makespan\": ";
    out += std::to_string(m.gauge_or("search.first_makespan"));
    out += ", \"best_makespan\": ";
    out += std::to_string(m.gauge_or("search.best_makespan"));
    out += '}';
  }
  if (result.faulted) {
    out += ", \"dead\": ";
    out += report::json_int_array(result.dead_modules);
    out += ", \"untestable\": ";
    out += report::json_int_array(result.untestable_modules);
    out += ", \"pairs_rebuilt\": ";
    out += std::to_string(result.pairs_rebuilt);
  }
  if (result.cross_check) {
    out += ", \"observed_makespan\": ";
    out += std::to_string(result.cross_check->observed_makespan);
    out += ", \"cross_check_ok\": ";
    out += result.cross_check->ok() ? "true" : "false";
  }
  out += '}';
  return out;
}

std::string error_json(const std::string& id, const std::string& message) {
  std::string out = "{\"id\": ";
  out += report::json_string(id);
  out += ", \"ok\": false, \"error\": ";
  out += report::json_string(message);
  out += '}';
  return out;
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
      item.error_line = error_json("line-" + std::to_string(line), e.what());
    }
    items.push_back(std::move(item));
    if (items.size() >= options.batch) flush();
  }
  flush();
  return 0;
}

}  // namespace nocsched::engine
