// Fig 3: median throughput of 8-stream vs 1-stream SLAC-BNL transfers,
// per 1-MB file-size bin, sizes in (0, 1 GB).
#include <cstdio>

#include "analysis/report.hpp"
#include "analysis/stream_analysis.hpp"
#include "bench_common.hpp"
#include "stats/table.hpp"

using namespace gridvc;

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "fig3_streams_small");

  bench::print_exhibit_header(
      "Fig 3: Throughput of 8-stream and 1-stream transfers of size (0, 1GB)",
      "For small files the 8-stream median beats the 1-stream median (Slow "
      "Start); medians converge at ~200 Mbps above ~146 MB (8-stream) and "
      "~575 MB (1-stream). Path BDP = 10 Gbps x 80 ms = 95.4 MB");

  analysis::StreamAnalysisOptions opt;
  opt.max_size = GiB;
  opt.min_bin_count = 5;
  const auto cmp = analysis::compare_streams(bench::slac_log(), opt);

  // Print the series at decimated sizes.
  stats::Table table("Median throughput per file-size bin (Mbps, measured)");
  table.set_header({"Bin center (MB)", "1-stream median", "(n)", "8-stream median", "(n)"});
  std::size_t ia = 0;
  double next_print = 1.0;
  for (const auto& pb : cmp.group_b.points) {
    if (pb.size_mb < next_print) continue;
    next_print = pb.size_mb * 1.6;  // geometric decimation
    while (ia < cmp.group_a.points.size() && cmp.group_a.points[ia].size_mb < pb.size_mb) {
      ++ia;
    }
    std::string one = "-", n_one = "-";
    if (ia < cmp.group_a.points.size() &&
        cmp.group_a.points[ia].size_mb - pb.size_mb < 8.0) {
      one = bench::fmt1(cmp.group_a.points[ia].median);
      n_one = std::to_string(cmp.group_a.points[ia].count);
    }
    table.add_row({bench::fmt1(pb.size_mb), one, n_one, bench::fmt1(pb.median),
                   std::to_string(pb.count)});
  }
  std::printf("%s\n", table.render().c_str());

  // convergence_size_mb returns -1 when no such size exists.
  const double conv = analysis::convergence_size_mb(cmp);
  if (conv < 0.0) {
    std::printf("groups do not converge (within 15%%) below 1 GB (paper: 1-stream "
                "reaches the plateau by ~575 MB)\n\n");
  } else {
    std::printf("groups converge (within 15%%) above ~%.0f MB (paper: 1-stream "
                "reaches the plateau by ~575 MB)\n\n",
                conv);
  }

  std::vector<double> x1, y1, x8, y8;
  for (const auto& p : cmp.group_a.points) {
    x1.push_back(p.size_mb);
    y1.push_back(p.median);
  }
  for (const auto& p : cmp.group_b.points) {
    x8.push_back(p.size_mb);
    y8.push_back(p.median);
  }
  std::printf("overlay ('1' = 1-stream, '8' = 8-stream; x = MB, y = Mbps):\n%s",
              analysis::ascii_two_series(x1, y1, '1', x8, y8, '8', 72, 18).c_str());
  return 0;
}
