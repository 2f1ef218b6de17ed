#include "common/logging.h"

#include <cstdlib>
#include <iostream>

#include "common/status.h"

namespace qagview {

namespace {
/// The least severe level that is emitted.
constexpr LogLevel kMinLevel = LogLevel::kInfo;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}
}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= kMinLevel) {
    std::cerr << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace qagview
