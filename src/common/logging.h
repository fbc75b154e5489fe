// Minimal check/logging macros in the spirit of glog, sufficient for a
// library that forbids exceptions: invariant violations abort with a
// source location and a message.
#ifndef DQSQ_COMMON_LOGGING_H_
#define DQSQ_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace dqsq::internal {

// Accumulates a message and aborts the process when destroyed. Used as the
// right-hand side of the CHECK macros below.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line, const char* condition) {
    stream_ << "CHECK failed at " << file << ":" << line << ": " << condition
            << " ";
  }
  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;
  [[noreturn]] ~FatalMessage() {
    std::cerr << stream_.str() << std::endl;
    std::abort();
  }

  template <typename T>
  FatalMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

// Swallows the streamed message when a check passes.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

// Gives the '?:' in the CHECK macro a common void type while letting
// callers stream extra context: `DQSQ_CHECK(x) << "detail"`.
struct Voidify {
  void operator&(FatalMessage&) {}
  void operator&(FatalMessage&&) {}
  void operator&(NullStream&) {}
  void operator&(NullStream&&) {}
};

}  // namespace dqsq::internal

#define DQSQ_CHECK(condition)                                   \
  (condition) ? (void)0                                         \
              : ::dqsq::internal::Voidify() &                   \
                    ::dqsq::internal::FatalMessage(              \
                        __FILE__, __LINE__, #condition)

// Binds the status by value: `expr` may be `Call().status()`, a reference
// into a temporary that dies at the end of this declaration.
#define DQSQ_CHECK_OK(expr)                                        \
  do {                                                             \
    const auto dqsq_check_ok_status = (expr);                      \
    if (!dqsq_check_ok_status.ok()) {                              \
      ::dqsq::internal::FatalMessage(__FILE__, __LINE__, #expr)    \
          << dqsq_check_ok_status.message();                       \
    }                                                              \
  } while (0)

#define DQSQ_CHECK_EQ(a, b) DQSQ_CHECK((a) == (b))
#define DQSQ_CHECK_NE(a, b) DQSQ_CHECK((a) != (b))
#define DQSQ_CHECK_LT(a, b) DQSQ_CHECK((a) < (b))
#define DQSQ_CHECK_LE(a, b) DQSQ_CHECK((a) <= (b))
#define DQSQ_CHECK_GT(a, b) DQSQ_CHECK((a) > (b))
#define DQSQ_CHECK_GE(a, b) DQSQ_CHECK((a) >= (b))

#ifdef NDEBUG
#define DQSQ_DCHECK(condition) \
  (true) ? (void)0 : (void)(::dqsq::internal::NullStream() << !(condition))
#else
#define DQSQ_DCHECK(condition) DQSQ_CHECK(condition)
#endif

#endif  // DQSQ_COMMON_LOGGING_H_
