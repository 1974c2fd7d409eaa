// The benchmark's three workloads (README.md gives the reason for each)
// and the execution of one op on a fresh simulated device.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/app.h"
#include "layers.h"
#include "simgpu/device.h"
#include "support/status.h"
#include "translator/classifier.h"

namespace perfbench {

/// splitmix64: seeded orders and salts must not depend on the standard
/// library's distribution algorithms.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}


/// Host-API stack an op runs on. All on the Titan profile except the
/// last, which is the Fig. 8(a) portability bar.
enum class Binding {
  kClNative,     // OpenCL source on native mocl
  kCl2Cu,        // OpenCL source through cl2cu on native mcuda
  kCudaNative,   // CUDA source on native mcuda
  kCu2Cl,        // CUDA source through cu2cl on native mocl
  kCu2ClHd7970,  // the same on the HD7970 profile
};
const char* BindingSlug(Binding b);
bool IsWrapped(Binding b);
bool IsCudaSource(Binding b);

enum class OpKind {
  kRun,       // one app run (corpus, inplace)
  kBuild,     // one run-time build of a salted source (build_cold)
  kClassify,  // one Table 3 classification of a salted source (build_cold)
};

struct Op {
  OpKind kind = OpKind::kRun;
  Binding binding = Binding::kClNative;
  /// App name for runs; "<app>.cl" / "<app>.cu" for builds; the Table 3
  /// sample name for classifications.
  std::string name;
  bridgecl::apps::App* app = nullptr;  // kRun
  std::string source;                  // kBuild / kClassify, unsalted
  /// kBuild from CUDA: a kernel of the source. Setting its registers is
  /// the first call that needs the device code, which makes cu2cl run its
  /// lazy clBuildProgram (§3.4); native mcuda gets the same call.
  std::string kernel;

  /// Key into the expected-outcome table: "<kind>\t<name>\t<binding>".
  std::string Key() const;
};

struct Workload {
  std::string name;
  std::vector<bridgecl::apps::AppPtr> apps;  // owns what Op::app points to
  std::vector<Op> ops;                       // one pass, in workload order
  std::vector<size_t> order;  // indices into `ops` in the seeded order
  std::vector<ProbeSource> probe_sources;    // distinct device sources
  bool salted = false;  // build_cold: fresh source suffix per pass
};

inline constexpr const char* kWorkloadNames[] = {"build_cold", "corpus",
                                                 "inplace"};

/// Builds the op list of `name` and its order shuffled by `seed`.
bridgecl::StatusOr<Workload> MakeWorkload(const std::string& name,
                                          uint64_t seed);

struct OpResult {
  bridgecl::Status status;
  double checksum = 0;  // kRun
  double sim_us = 0;    // simulated device time excluding builds, kRun
  std::string categories;  // kClassify: Table 3 rows, comma-joined
  bridgecl::simgpu::DeviceStats stats;
};

/// Runs `op` on a fresh device and binding stack. Builds and
/// classifications use SaltSource(op.source, ..., salt). With `rec`, the
/// stack has a tap at every boundary recording into it.
OpResult RunOp(const Op& op, uint64_t salt, SpanRecorder* rec);

/// The expected outcome of an op, as the table stores it: "ok <checksum>"
/// for runs, "ok" for builds, "error <status>/<api code>" for expected
/// rejections, "classified <categories>" for classifications.
std::string Outcome(const Op& op, const OpResult& r);

/// Table 3 row names, comma-joined, in Table 3 order.
std::string JoinCategories(
    const std::vector<bridgecl::translator::FailureCategory>& categories);
/// Table 3 categories of a CUDA source ("translatable" when none).
std::string Table3Of(const std::string& cuda_source);
/// The CUDA source whose Table 3 classification an op's outcome is
/// checked against: the app's whole source for runs, the built source
/// for builds; empty for OpenCL ops and classifications.
std::string Table3SourceOf(const Op& op);

/// key -> {outcome, table3}; see expected.tsv.
struct Expectation {
  std::string outcome;
  std::string table3;
};
using ExpectedTable = std::map<std::string, Expectation>;
bridgecl::StatusOr<ExpectedTable> LoadExpected(const std::string& path);

}  // namespace perfbench
