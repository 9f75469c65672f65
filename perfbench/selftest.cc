// Self-test of the correctness checks: each check must accept the true
// answer and reject a perturbed one (swapped expert, dropped paper,
// foreign expert, degraded retrieval). Runs on the tiny profile in well
// under a second of engine build.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/corpus_builder.h"
#include "data/dataset.h"
#include "data/queries.h"
#include "harness.h"
#include "json_lite.h"
#include "oracle.h"
#include "spans.h"

namespace perfbench {

namespace {

struct Tally {
  int misjudged = 0;
  int cases = 0;
  void Expect(bool verdict, bool want, const std::string& name) {
    ++cases;
    if (verdict != want) {
      ++misjudged;
      std::fprintf(stderr, "selftest: %s: check said %s, expected %s\n",
                   name.c_str(), verdict ? "pass" : "fail",
                   want ? "pass" : "fail");
    }
  }
};

std::string Body(const std::vector<Scored>& answer) {
  std::string body = "{\"experts\":[";
  for (size_t i = 0; i < answer.size(); ++i) {
    if (i > 0) body += ",";
    body += "{\"id\":" + std::to_string(answer[i].author) +
            ",\"name\":\"a\\u00e9\",\"score\":";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", answer[i].score);
    body += std::string(buf) + "}";
  }
  return body + "],\"batch_size\":1}";
}

}  // namespace

int SelfTest(const Options& /*options*/) {
  Tally t;
  const kpef::Dataset dataset = kpef::GenerateDataset(kpef::TinyProfile());
  const kpef::Corpus corpus = kpef::BuildPaperCorpus(dataset);
  kpef::EngineConfig config;
  config.top_m = std::max<size_t>(50, dataset.Papers().size() / 10);
  auto built = kpef::ExpertFindingEngine::Build(&dataset, &corpus, config);
  if (!built.ok()) {
    std::fprintf(stderr, "selftest: build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  kpef::ExpertFindingEngine& engine = **built;
  const kpef::QuerySet queries = kpef::GenerateQueries(dataset, 8, 5);
  const size_t m = engine.config().top_m;
  const size_t n = 10;
  std::string why;

  for (size_t qi = 0; qi < queries.queries.size(); ++qi) {
    const std::string& text = queries.queries[qi].text;
    const std::string tag = "query " + std::to_string(qi) + ": ";
    std::vector<Scored> answer;
    for (const kpef::ExpertScore& e : engine.FindExperts(text, n)) {
      answer.push_back({e.author, e.score});
    }
    const std::vector<kpef::NodeId> papers = engine.RetrievePapers(text, m);
    const std::vector<Scored> full =
        RescoreEq45(dataset.graph, dataset.ids.write, papers);

    // Eq. 4-5 rescoring check.
    t.Expect(MatchesRescoring(answer, full, n, &why), true, tag + "true answer");
    if (answer.size() >= 2 && answer.front().score != answer.back().score) {
      std::vector<Scored> swapped = answer;
      std::swap(swapped.front().author, swapped.back().author);
      t.Expect(MatchesRescoring(swapped, full, n, &why), false,
               tag + "swapped expert");
    }
    std::vector<Scored> foreign = answer;
    foreign.back().author = dataset.Papers().front();  // a paper, not an author
    t.Expect(MatchesRescoring(foreign, full, n, &why), false,
             tag + "foreign expert");
    std::vector<Scored> dropped_expert = answer;
    dropped_expert.pop_back();
    t.Expect(MatchesRescoring(dropped_expert, full, n, &why), false,
             tag + "dropped expert");
    std::vector<kpef::NodeId> fewer(papers.begin() + 1, papers.end());
    t.Expect(MatchesRescoring(
                 answer, RescoreEq45(dataset.graph, dataset.ids.write, fewer),
                 n, &why),
             false, tag + "dropped paper");

    // HTTP body vs in-process answer.
    std::vector<Scored> parsed;
    t.Expect(ParseExperts(Body(answer), &parsed) &&
                 SameAnswer(answer, parsed, &why),
             true, tag + "body equals answer");
    if (answer.size() >= 2 && answer[0].score != answer[1].score) {
      std::vector<Scored> swapped = answer;
      std::swap(swapped[0].author, swapped[1].author);
      t.Expect(ParseExperts(Body(swapped), &parsed) &&
                   SameAnswer(answer, parsed, &why),
               false, tag + "body with swapped expert");
    }
    t.Expect(ParseExperts(Body({}), &parsed) && SameAnswer(answer, parsed, &why),
             false, tag + "empty body");

    // Recall against the exact scan, and own-paper retrieval.
    const std::vector<float> q = engine.encoder().Encode(corpus.EncodeQuery(text));
    const std::vector<int32_t> exact = ExactTopM(engine.embeddings(), q, m);
    std::vector<int32_t> rows;
    for (const kpef::NodeId p : papers) {
      rows.push_back(static_cast<int32_t>(dataset.graph.LocalIndex(p)));
    }
    t.Expect(RecallAtM(rows, exact) >= 0.9, true, tag + "engine recall");
    const std::vector<int32_t> all =
        ExactTopM(engine.embeddings(), q, engine.embeddings().rows());
    const std::vector<int32_t> farthest(all.end() - static_cast<ptrdiff_t>(m),
                                        all.end());
    t.Expect(RecallAtM(farthest, exact) >= 0.9, false, tag + "degraded retrieval");
    const kpef::NodeId own = queries.queries[qi].query_paper;
    t.Expect(std::find(papers.begin(), papers.end(), own) != papers.end(), true,
             tag + "own paper retrieved");
    std::vector<kpef::NodeId> without = papers;
    without.erase(std::remove(without.begin(), without.end(), own), without.end());
    t.Expect(std::find(without.begin(), without.end(), own) != without.end(),
             false, tag + "own paper dropped");
  }

  // Average precision by hand: relevant {1, 3}, answer 1, 2, 3.
  const double ap = AveragePrecision({{1, 3.0}, {2, 2.0}, {3, 1.0}}, {1, 3}, 10);
  t.Expect(ap > 0.8333 && ap < 0.8334, true, "average precision (1 + 2/3) / 2");

  // Self time subtracts the union of the children.
  Span parent{"p", 1, 0, 1, 0, 100};
  const uint64_t self = SelfNs(parent, {Span{"a", 2, 1, 1, 10, 40},
                                        Span{"b", 3, 1, 1, 30, 60},
                                        Span{"c", 4, 1, 1, 90, 150}});
  t.Expect(self == 40, true, "self time 100 - |[10,60] + [90,100]|");

  std::printf("selftest: %d cases\n", t.cases);
  return t.misjudged;
}

}  // namespace perfbench
