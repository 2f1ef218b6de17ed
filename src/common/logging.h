#ifndef QAGVIEW_COMMON_LOGGING_H_
#define QAGVIEW_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace qagview {

/// Severity of a log statement. kDebug statements are not emitted; kFatal
/// ones abort.
enum class LogLevel { kDebug = 0, kInfo, kWarning, kError, kFatal };

namespace internal {

/// One in-flight log statement; emits on destruction. kFatal aborts.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed message when the statement is compiled out.
class NullLog {
 public:
  template <typename T>
  NullLog& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal
}  // namespace qagview

#define QAG_LOG(level)                                              \
  ::qagview::internal::LogMessage(::qagview::LogLevel::k##level,    \
                                  __FILE__, __LINE__)

/// Fatal assertion: always on, aborts with the streamed message on failure.
/// Supports streaming extra context: QAG_CHECK(x > 0) << "x=" << x;
#define QAG_CHECK(cond)                                             \
  while (!(cond))                                                   \
  ::qagview::internal::LogMessage(::qagview::LogLevel::kFatal,      \
                                  __FILE__, __LINE__)               \
      << "Check failed: " #cond " "

#define QAG_CHECK_OK(expr)                                          \
  do {                                                              \
    ::qagview::Status _qag_st = (expr);                             \
    QAG_CHECK(_qag_st.ok()) << _qag_st.ToString();                  \
  } while (false)

#ifdef NDEBUG
// Compiled out, but keeps `cond`'s operands "used" to avoid warnings.
#define QAG_DCHECK(cond) \
  while (false && (cond)) ::qagview::internal::NullLog()
#else
#define QAG_DCHECK(cond) QAG_CHECK(cond)
#endif

#endif  // QAGVIEW_COMMON_LOGGING_H_
