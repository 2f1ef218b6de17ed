#ifndef QAGVIEW_STUDY_SUBJECT_H_
#define QAGVIEW_STUDY_SUBJECT_H_

#include <cstdint>
#include <vector>

#include "baselines/decision_tree.h"
#include "common/random.h"
#include "core/explore.h"
#include "core/solution.h"

namespace qagview::study {

/// One summary rule as shown to a study subject: a predicate conjunction
/// (equality-only for QAGView cluster patterns; decision-tree rules also
/// carry negations) plus the displayed statistics.
struct StudyPattern {
  std::vector<baselines::Predicate> predicates;
  double avg_value = 0.0;
  int count = 0;
  int top_count = 0;
  std::vector<int> member_ids;  // shown in the patterns+members section

  int Complexity() const;  // equality = 1, negation = 2
};

/// The full summary handed to a subject for one task group.
struct PatternSet {
  std::vector<StudyPattern> patterns;

  int TotalComplexity() const;
};

/// Converts a QAGView solution into study patterns (equality predicates on
/// the non-wildcard positions; the Figure-1b display). Top counts count
/// covered ranks within the top `top_l`; 0 means the universe's L.
PatternSet PatternsFromSolution(const core::ClusterUniverse& universe,
                                const core::Solution& solution,
                                int top_l = 0);

/// Converts a trained decision tree's positive rules into study patterns.
PatternSet PatternsFromDecisionTree(const core::AnswerSet& s,
                                    const baselines::DecisionTree& tree);

/// The three answer categories of the §8 classification questions.
enum class Category { kTop, kHigh, kLow };

/// Ground truth: top (rank <= L), high (value >= overall average, outside
/// top L), low (below average).
Category GroundTruth(const core::AnswerSet& s, int element, int top_l);

/// The three question sections of §8.1.
enum class Section { kPatternsOnly, kMemoryOnly, kPatternsMembers };

/// Behavioural parameters of the simulated subject (the §8 substitution:
/// response correctness and time driven by pattern complexity, with
/// memory decay in the memory-only section — the mechanism the paper
/// credits for its findings).
struct SubjectParams {
  double base_read_seconds = 7.0;
  double per_predicate_seconds = 1.5;
  double member_scan_seconds = 0.35;
  double memory_base_seconds = 4.0;
  double memory_per_predicate_seconds = 0.35;
  /// Predicate-recall scale: each predicate of complexity c is recalled
  /// with probability exp(-c * TotalComplexity / capacity).
  double memory_capacity = 90.0;
  /// Baseline slip probability on any answer.
  double slip_prob = 0.05;
  double time_noise = 0.15;  // lognormal-ish multiplicative noise
};

/// \brief One simulated participant: classifies hidden-value tuples into
/// top/high/low given a pattern set and a section's information access.
///
/// Strategy is method-agnostic — accuracy differences between QAGView
/// patterns and decision-tree rules emerge from the patterns themselves
/// (complexity, discriminativeness), not from method-specific code paths.
class SimulatedSubject {
 public:
  SimulatedSubject(uint64_t seed, const SubjectParams& params)
      : rng_(seed), params_(params) {}

  struct Answer {
    Category category = Category::kLow;
    double seconds = 0.0;
  };

  /// Answers one classification question.
  Answer Classify(const core::AnswerSet& s, int element, int top_l,
                  const PatternSet& patterns, Section section);

 private:
  Rng rng_;
  SubjectParams params_;
};

}  // namespace qagview::study

#endif  // QAGVIEW_STUDY_SUBJECT_H_
