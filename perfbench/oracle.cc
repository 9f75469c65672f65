#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "json_lite.h"

namespace perfbench {

namespace {

bool Close(double a, double b) {
  return std::fabs(a - b) <=
         kScoreTolerance * std::max({1.0, std::fabs(a), std::fabs(b)});
}

bool Distinct(const std::vector<Scored>& list) {
  std::unordered_set<kpef::NodeId> seen;
  for (const Scored& s : list) {
    if (!seen.insert(s.author).second) return false;
  }
  return true;
}

}  // namespace

std::vector<int32_t> ExactTopM(const kpef::Matrix& points,
                               std::span<const float> query, size_t m) {
  std::vector<std::pair<double, int32_t>> all;
  all.reserve(points.rows());
  for (size_t r = 0; r < points.rows(); ++r) {
    const auto row = points.Row(r);
    double d = 0.0;
    for (size_t c = 0; c < query.size(); ++c) {
      const double diff = static_cast<double>(row[c]) - query[c];
      d += diff * diff;
    }
    all.emplace_back(d, static_cast<int32_t>(r));
  }
  m = std::min(m, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(m),
                    all.end());
  std::vector<int32_t> out;
  out.reserve(m);
  for (size_t i = 0; i < m; ++i) out.push_back(all[i].second);
  return out;
}

double RecallAtM(const std::vector<int32_t>& retrieved,
                 const std::vector<int32_t>& exact) {
  if (exact.empty()) return 1.0;
  const std::unordered_set<int32_t> got(retrieved.begin(), retrieved.end());
  size_t hits = 0;
  for (const int32_t row : exact) hits += got.count(row);
  return static_cast<double>(hits) / static_cast<double>(exact.size());
}

std::vector<Scored> RescoreEq45(const kpef::HeteroGraph& graph,
                                kpef::EdgeTypeId write_type,
                                const std::vector<kpef::NodeId>& papers) {
  std::unordered_map<kpef::NodeId, double> total;
  for (size_t j = 0; j < papers.size(); ++j) {
    const auto authors = graph.NeighborSegments(papers[j], write_type);
    const size_t count = authors.size();
    double harmonic = 0.0;
    for (size_t i = 1; i <= count; ++i) harmonic += 1.0 / static_cast<double>(i);
    for (size_t rank = 1; rank <= count; ++rank) {
      const size_t slot = rank - 1;
      const kpef::NodeId author =
          slot < authors.base.size() ? authors.base[slot]
                                     : authors.delta[slot - authors.base.size()];
      const double w = 1.0 / (static_cast<double>(rank) * harmonic);
      total[author] += w / static_cast<double>(j + 1);
    }
  }
  std::vector<Scored> out;
  out.reserve(total.size());
  for (const auto& [author, score] : total) out.push_back({author, score});
  std::sort(out.begin(), out.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.author < b.author;
  });
  return out;
}

bool MatchesRescoring(const std::vector<Scored>& answer,
                      const std::vector<Scored>& full, size_t n,
                      std::string* why) {
  const size_t want = std::min(n, full.size());
  if (answer.size() != want) {
    *why = "answer has " + std::to_string(answer.size()) + " experts, want " +
           std::to_string(want);
    return false;
  }
  if (!Distinct(answer)) {
    *why = "answer repeats an expert";
    return false;
  }
  std::unordered_map<kpef::NodeId, double> score_of;
  for (const Scored& s : full) score_of.emplace(s.author, s.score);
  for (size_t i = 0; i < answer.size(); ++i) {
    const auto it = score_of.find(answer[i].author);
    if (it == score_of.end()) {
      *why = "expert " + std::to_string(answer[i].author) +
             " is not a candidate of the retrieved papers";
      return false;
    }
    if (!Close(answer[i].score, full[i].score) ||
        !Close(answer[i].score, it->second)) {
      *why = "position " + std::to_string(i) + ": expert " +
             std::to_string(answer[i].author) + " scored " +
             std::to_string(answer[i].score) + ", Eq. 4-5 gives " +
             std::to_string(it->second) + " (rank score " +
             std::to_string(full[i].score) + ")";
      return false;
    }
  }
  return true;
}

bool SameAnswer(const std::vector<Scored>& expected,
                const std::vector<Scored>& got, std::string* why) {
  if (got.size() != expected.size()) {
    *why = "answer has " + std::to_string(got.size()) + " experts, want " +
           std::to_string(expected.size());
    return false;
  }
  if (!Distinct(got)) {
    *why = "answer repeats an expert";
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!Close(got[i].score, expected[i].score)) {
      *why = "position " + std::to_string(i) + " scored " +
             std::to_string(got[i].score) + ", want " +
             std::to_string(expected[i].score);
      return false;
    }
    if (got[i].author == expected[i].author) continue;
    const bool tied = std::any_of(
        expected.begin(), expected.end(), [&](const Scored& e) {
          return e.author == got[i].author && Close(e.score, got[i].score);
        });
    if (!tied) {
      *why = "position " + std::to_string(i) + " holds expert " +
             std::to_string(got[i].author) + ", want " +
             std::to_string(expected[i].author);
      return false;
    }
  }
  return true;
}

double AveragePrecision(const std::vector<Scored>& answer,
                        const std::vector<kpef::NodeId>& relevant_sorted,
                        size_t depth) {
  const size_t norm = std::min(relevant_sorted.size(), depth);
  if (norm == 0) return 0.0;
  size_t hits = 0;
  double sum = 0.0;
  for (size_t i = 0; i < answer.size() && i < depth; ++i) {
    if (std::binary_search(relevant_sorted.begin(), relevant_sorted.end(),
                           answer[i].author)) {
      ++hits;
      sum += static_cast<double>(hits) / static_cast<double>(i + 1);
    }
  }
  return sum / static_cast<double>(norm);
}

bool ParseExperts(const std::string& body, std::vector<Scored>* out) {
  out->clear();
  Json doc;
  if (!ParseJson(body, &doc)) return false;
  const Json* experts = doc.Get("experts");
  if (experts == nullptr || experts->type != Json::Type::kArray) return false;
  for (const Json& e : experts->items) {
    const Json* id = e.Get("id");
    const Json* score = e.Get("score");
    if (id == nullptr || score == nullptr || id->type != Json::Type::kNumber ||
        score->type != Json::Type::kNumber) {
      return false;
    }
    out->push_back({static_cast<kpef::NodeId>(id->number), score->number});
  }
  return true;
}

}  // namespace perfbench
