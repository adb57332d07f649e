#include "analysis/report.h"

#include <algorithm>

#include "analysis/flow_index.h"
#include "util/strings.h"

namespace panoptes::analysis {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::Render() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) {
    widths[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& cells) {
    std::string line;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i != 0) line += "  ";
      line += cells[i];
      line.append(widths[i] - cells[i].size(), ' ');
    }
    // Trim trailing padding.
    while (!line.empty() && line.back() == ' ') line.pop_back();
    return line + "\n";
  };

  std::string out = render_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  out += std::string(total > 2 ? total - 2 : total, '-') + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string Ratio(double value, int decimals) {
  return util::FormatDouble(value, decimals);
}

std::string Percent(double fraction, int decimals) {
  return util::FormatDouble(fraction * 100.0, decimals) + "%";
}

std::string Bytes(uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 3) {
    value /= 1024.0;
    ++unit;
  }
  return util::FormatDouble(value, unit == 0 ? 0 : 1) + " " + units[unit];
}

namespace {

std::string Millis(double seconds) {
  return util::FormatDouble(seconds * 1000.0, 1) + " ms";
}

}  // namespace

std::string FleetSummaryTable(
    const std::vector<core::FleetJobResult>& results,
    const core::FleetRunStats* stats, const core::RunManifest* manifest) {
  TextTable table(
      {"Browser", "Campaign", "Engine", "Native", "Ratio", "Native bytes"});
  for (const auto& result : results) {
    if (result.crawl.has_value()) {
      const core::CrawlResult& crawl = *result.crawl;
      table.AddRow({result.job.spec.name,
                    std::string(core::CampaignKindName(result.job.kind)),
                    std::to_string(crawl.EngineRequestCount()),
                    std::to_string(crawl.NativeRequestCount()),
                    Ratio(crawl.NativeRatio()),
                    Bytes(crawl.native_index->request_bytes_total())});
    } else if (result.idle.has_value()) {
      const core::IdleResult& idle = *result.idle;
      table.AddRow({result.job.spec.name,
                    std::string(core::CampaignKindName(result.job.kind)),
                    "0", std::to_string(idle.native_flows->size()), "-",
                    Bytes(idle.native_index->request_bytes_total())});
    }
  }
  std::string out = table.Render();
  if (stats != nullptr && stats->workers > 0) {
    size_t jobs = stats->job_seconds.size();
    out += "fleet: " + std::to_string(jobs) + " job" +
           (jobs == 1 ? "" : "s") + " over " +
           std::to_string(stats->workers) + " worker" +
           (stats->workers == 1 ? "" : "s") + " in " +
           util::FormatDouble(stats->wall_seconds, 2) + " s (job p50 " +
           Millis(stats->JobLatencyQuantile(0.5)) + ", p95 " +
           Millis(stats->JobLatencyQuantile(0.95)) + ")\n";
    out += "worker jobs:";
    for (size_t i = 0; i < stats->jobs_per_worker.size(); ++i) {
      out += " w" + std::to_string(i) + "=" +
             std::to_string(stats->jobs_per_worker[i]);
    }
    out += "\n";
  }
  if (manifest != nullptr && manifest->Degraded()) {
    out += "degraded run (chaos profile \"" + manifest->chaos_profile +
           "\"): " + std::to_string(manifest->total_faults) +
           " faults injected";
    if (!manifest->faults_by_kind.empty()) {
      out += " (";
      bool first = true;
      for (const auto& [kind, count] : manifest->faults_by_kind) {
        if (!first) out += ", ";
        out += kind + "=" + std::to_string(count);
        first = false;
      }
      out += ")";
    }
    out += "\n";
    out += "self-healing: " + std::to_string(manifest->total_visit_retries) +
           " visit retries, " + std::to_string(manifest->total_job_retries) +
           " job retries, " + std::to_string(manifest->total_failed_visits) +
           " failed visits, " + std::to_string(manifest->quarantined_jobs) +
           " quarantined jobs, " +
           std::to_string(manifest->flow_writes_dropped) +
           " dropped flow writes, backoff " +
           std::to_string(manifest->backoff_millis) + " ms (simulated)\n";
  }
  if (manifest != nullptr && manifest->cache_enabled) {
    out += "cache: " + std::to_string(manifest->cache_hits) + " hits, " +
           std::to_string(manifest->cache_misses) + " misses, " +
           std::to_string(manifest->cache_writes) + " writes, " +
           std::to_string(manifest->cache_invalidated) + " invalidated\n";
  }
  return out;
}

}  // namespace panoptes::analysis
