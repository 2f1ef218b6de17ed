#include "study/subject.h"

#include <algorithm>
#include <cmath>

#include "core/cluster.h"

namespace qagview::study {

int StudyPattern::Complexity() const {
  int c = 0;
  for (const baselines::Predicate& p : predicates) c += p.equals ? 1 : 2;
  return c;
}

int PatternSet::TotalComplexity() const {
  int c = 0;
  for (const StudyPattern& p : patterns) c += p.Complexity();
  return c;
}

PatternSet PatternsFromSolution(const core::ClusterUniverse& universe,
                                const core::Solution& solution,
                                int top_l) {
  if (top_l <= 0) top_l = universe.top_l();
  PatternSet out;
  for (int id : solution.cluster_ids) {
    const core::Cluster& c = universe.cluster(id);
    StudyPattern p;
    for (int a = 0; a < c.num_attrs(); ++a) {
      if (!c.IsWildcard(a)) {
        p.predicates.push_back({a, c[a], /*equals=*/true});
      }
    }
    p.avg_value = universe.Average(id);
    p.count = universe.covered_count(id);
    p.top_count = universe.TopCoveredCount(id, top_l);
    for (int32_t e : universe.covered(id)) {
      p.member_ids.push_back(static_cast<int>(e));
    }
    out.patterns.push_back(std::move(p));
  }
  return out;
}

PatternSet PatternsFromDecisionTree(const core::AnswerSet& s,
                                    const baselines::DecisionTree& tree) {
  PatternSet out;
  for (const baselines::DecisionRule& rule : tree.PositiveRules()) {
    StudyPattern p;
    p.predicates = rule.predicates;
    p.avg_value = rule.avg_value;
    p.count = rule.total_count;
    for (int e = 0; e < s.size(); ++e) {
      if (rule.Matches(s.element(e).attrs)) p.member_ids.push_back(e);
    }
    p.top_count = rule.positive_count;
    out.patterns.push_back(std::move(p));
  }
  return out;
}

Category GroundTruth(const core::AnswerSet& s, int element, int top_l) {
  if (element < top_l) return Category::kTop;
  if (s.value(element) >= s.TrivialAverage()) return Category::kHigh;
  return Category::kLow;
}

SimulatedSubject::Answer SimulatedSubject::Classify(
    const core::AnswerSet& s, int element, int top_l,
    const PatternSet& patterns, Section section) {
  const std::vector<int32_t>& attrs = s.element(element).attrs;
  Answer answer;

  auto random_category = [this]() {
    switch (rng_.Index(3)) {
      case 0: return Category::kTop;
      case 1: return Category::kHigh;
      default: return Category::kLow;
    }
  };
  auto with_slip = [&](Category intended) {
    return rng_.Bernoulli(params_.slip_prob) ? random_category() : intended;
  };
  auto noisy_time = [&](double seconds) {
    return std::max(1.0, seconds * (1.0 + rng_.Gaussian(0.0, params_.time_noise)));
  };

  // --- Patterns+members: look the exact tuple up in the member lists. ---
  if (section == Section::kPatternsMembers) {
    double scanned = 0.0;
    bool found = false;
    bool found_top_slot = false;
    for (const StudyPattern& p : patterns.patterns) {
      for (size_t idx = 0; idx < p.member_ids.size(); ++idx) {
        scanned += 1.0;
        if (p.member_ids[idx] == element) {
          found = true;
          // Members are listed in rank order; the subject sees whether the
          // tuple sits among the top-L entries of the cluster.
          found_top_slot = element < top_l;
          break;
        }
      }
      if (found) break;
    }
    Category intended;
    if (found) {
      intended = found_top_slot ? Category::kTop : Category::kHigh;
    } else {
      // Not in any cluster: judge from how close it is to shown patterns.
      intended = GroundTruth(s, element, top_l) == Category::kHigh &&
                         rng_.Bernoulli(0.3)
                     ? Category::kHigh
                     : Category::kLow;
    }
    answer.category = with_slip(intended);
    answer.seconds = noisy_time(params_.base_read_seconds +
                                params_.member_scan_seconds * scanned);
    return answer;
  }

  // --- Patterns-only / memory-only: evaluate the predicates. ---
  bool memory = section == Section::kMemoryOnly;
  double total_complexity = patterns.TotalComplexity();
  double recall_scale =
      memory ? std::exp(-total_complexity / params_.memory_capacity) : 1.0;

  // Evaluate patterns; in memory mode each predicate may be forgotten
  // (dropped -> pattern over-generalizes) or misremembered (flipped).
  const StudyPattern* best_match = nullptr;
  double best_proximity = 0.0;
  const StudyPattern* best_proximity_pattern = nullptr;
  double predicates_read = 0.0;
  for (const StudyPattern& p : patterns.patterns) {
    bool matches = true;
    int operational = 0;
    int agreeing = 0;
    for (const baselines::Predicate& pred : p.predicates) {
      predicates_read += memory ? 0.4 : 1.0;
      double recall_p = std::pow(recall_scale, pred.equals ? 1.0 : 2.0);
      if (memory && !rng_.Bernoulli(recall_p)) {
        // Forgotten predicate: half the time dropped, half misremembered.
        if (rng_.Bernoulli(0.5)) continue;  // dropped
        matches = matches && rng_.Bernoulli(0.5);
        ++operational;
        continue;
      }
      ++operational;
      bool ok = pred.Matches(attrs);
      agreeing += ok;
      matches = matches && ok;
    }
    if (matches && (best_match == nullptr ||
                    p.avg_value > best_match->avg_value)) {
      best_match = &p;
    }
    if (operational > 0) {
      double proximity = static_cast<double>(agreeing) / operational;
      if (proximity > best_proximity) {
        best_proximity = proximity;
        best_proximity_pattern = &p;
      }
    }
  }

  Category intended;
  if (best_match != nullptr) {
    // The subject saw the pattern's displayed average: high-average
    // patterns read as "top" summaries, others as merely good.
    double top_threshold = s.TopAverage(top_l);
    intended = best_match->avg_value >=
                       0.5 * (top_threshold + s.TrivialAverage())
                   ? Category::kTop
                   : Category::kHigh;
  } else if (best_proximity >= 0.6 && best_proximity_pattern != nullptr &&
             best_proximity_pattern->avg_value > s.TrivialAverage()) {
    // Near-miss of a high-valued pattern: probably good but not top.
    intended = Category::kHigh;
  } else {
    intended = Category::kLow;
  }

  answer.category = with_slip(intended);
  double seconds =
      memory ? params_.memory_base_seconds +
                   params_.memory_per_predicate_seconds * predicates_read
             : params_.base_read_seconds +
                   params_.per_predicate_seconds * predicates_read * 0.35;
  answer.seconds = noisy_time(seconds);
  return answer;
}

}  // namespace qagview::study
