// Correctness oracles written apart from the program: an exact nearest-
// neighbour scan, the paper's Eq. 4-5 expert scoring, answer comparison
// and average precision. The checks are pure functions so the
// benchmark's self-test can feed them perturbed answers.
#ifndef KPEF_PERFBENCH_ORACLE_H_
#define KPEF_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "embed/matrix.h"
#include "graph/hetero_graph.h"

namespace perfbench {

struct Scored {
  kpef::NodeId author = -1;
  double score = 0.0;
};

/// Relative tolerance for comparing expert scores.
inline constexpr double kScoreTolerance = 1e-9;

/// Rows of `points` nearest to `query` by squared L2, ascending by
/// (distance, row), at most `m` of them.
std::vector<int32_t> ExactTopM(const kpef::Matrix& points,
                               std::span<const float> query, size_t m);

/// |retrieved ∩ exact| / |exact| (1 when `exact` is empty).
double RecallAtM(const std::vector<int32_t>& retrieved,
                 const std::vector<int32_t>& exact);

/// Eq. 4-5 over retrieved papers in rank order: S(a, p) = w(a, p) / I(p)
/// with w(a, p) = 1 / (I(a) * H(|C_p|)), I(a) the author's 1-based
/// position in the paper's Write adjacency and I(p) the paper's 1-based
/// retrieval rank; R(a) = sum of S(a, p). Every candidate, descending by
/// R, ties by author id.
std::vector<Scored> RescoreEq45(const kpef::HeteroGraph& graph,
                                kpef::EdgeTypeId write_type,
                                const std::vector<kpef::NodeId>& papers);

/// True when `answer` is a top-n of `full` (the complete rescoring): it
/// has min(n, |full|) distinct experts, position i's score equals
/// full[i]'s, and each expert's score equals its own R in `full` — so
/// ids match up to ties and scores within kScoreTolerance.
bool MatchesRescoring(const std::vector<Scored>& answer,
                      const std::vector<Scored>& full, size_t n,
                      std::string* why);

/// True when `got` equals `expected` position by position, with
/// experts allowed to trade places only inside a group of tied scores.
bool SameAnswer(const std::vector<Scored>& expected,
                const std::vector<Scored>& got, std::string* why);

/// AP of a ranked answer against a sorted relevant set, normalised by
/// min(|relevant|, depth).
double AveragePrecision(const std::vector<Scored>& answer,
                        const std::vector<kpef::NodeId>& relevant_sorted,
                        size_t depth);

/// Decodes the "experts" list of a /v1/find_experts body.
bool ParseExperts(const std::string& body, std::vector<Scored>* out);

}  // namespace perfbench

#endif  // KPEF_PERFBENCH_ORACLE_H_
