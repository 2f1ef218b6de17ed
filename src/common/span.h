#ifndef QAGVIEW_COMMON_SPAN_H_
#define QAGVIEW_COMMON_SPAN_H_

#include <cstddef>

#include "common/logging.h"

namespace qagview {

/// \brief A read-only view of `size()` contiguous elements (C++17 has no
/// std::span). It owns nothing: the array it views must outlive it.
template <typename T>
class Span {
 public:
  Span() = default;
  Span(const T* data, size_t size) : data_(data), size_(size) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  const T& operator[](size_t i) const {
#ifdef _GLIBCXX_ASSERTIONS
    // The bounds check std::vector::operator[] makes in hardened builds.
    QAG_CHECK(i < size_) << "span index " << i << " of " << size_;
#endif
    QAG_DCHECK(i < size_);
    return data_[i];
  }
  const T& back() const { return (*this)[size_ - 1]; }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace qagview

#endif  // QAGVIEW_COMMON_SPAN_H_
