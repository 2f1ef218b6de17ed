#ifndef QAGVIEW_SERVICE_PREFETCH_H_
#define QAGVIEW_SERVICE_PREFETCH_H_

#include <vector>

#include "study/trajectory.h"

namespace qagview::service {

/// \brief The exploration-aware prediction policy behind QueryService's
/// prefetcher: maps one observed foreground move to the ranked coverage
/// levels the client will most likely ask for next.
///
/// The predictor is a thin, stateless clamp over the study layer's
/// NextMoveModel (study/trajectory.h): the model supplies ranked level
/// *changes* per move kind, and this class turns them into concrete,
/// in-range, deduplicated target levels for a session with `num_answers`
/// ranked answers. Stateless and immutable, so one instance serves every
/// session and thread.
class ExplorationPredictor {
 public:
  /// `max_predictions` bounds the speculative builds issued per observed
  /// move (clamped to >= 1).
  explicit ExplorationPredictor(int max_predictions = 2);

  /// Levels to prefetch after a move of `kind` at `level`. In model
  /// order (most probable first); every entry is in [1, num_answers] and
  /// differs from `level` (the current level's structures are warm by
  /// definition). Empty when nothing useful can be predicted.
  std::vector<int> NextLevels(study::MoveKind kind, int level,
                              int num_answers) const;

  /// Likely first summarization levels right after Query() opens a
  /// session — warming these makes the session's very first Summarize a
  /// warm read. Same clamping rules as NextLevels.
  std::vector<int> InitialLevels(int num_answers) const;

 private:
  int max_predictions_;
};

}  // namespace qagview::service

#endif  // QAGVIEW_SERVICE_PREFETCH_H_
