// Move-only callable with inline storage and no heap.
//
// Every simulated event carries a callback, and so does every flow and
// every transfer. std::function heap-allocates any closure larger than
// two pointers, so on the event loop it would cost an allocation per
// event. InlineFunction stores the closure in a fixed buffer inside
// itself instead. A closure that does
// not fit is a compile error (the static_assert in the converting
// constructor), never a silent fallback to the heap, so every schedule_*,
// start_flow and submit call in the tree is checked at build time.
//
// Unlike std::function it is move-only, so a closure may own move-only
// state, and moving one moves the closure it holds.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace gridvc {

/// Inline capacity, in bytes, of the simulator, network and transfer
/// engine callbacks: six pointers, which holds every closure in src/.
inline constexpr std::size_t kInlineCallbackBytes = 48;
/// Closures are stored pointer-aligned, which every closure of pointers,
/// integers and doubles is; this keeps the callable at 56 bytes.
inline constexpr std::size_t kInlineCallbackAlign = alignof(void*);

template <typename Signature, std::size_t Capacity = kInlineCallbackBytes>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT: mirrors std::function

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFunction(F&& f) {  // NOLINT: implicit, like std::function
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "closure too large for InlineFunction: capture less (an index or "
                  "a pointer) or raise the capacity");
    static_assert(alignof(Fn) <= kInlineCallbackAlign,
                  "closure over-aligned for InlineFunction");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "InlineFunction closures must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) noexcept {
    return f.ops_ == nullptr;
  }

  /// Calls the closure. Calling an empty InlineFunction throws
  /// std::bad_function_call, as std::function does.
  R operator()(Args... args) {
    if (ops_ == nullptr) throw std::bad_function_call();
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* dst, void* src) noexcept;  ///< move-construct, destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* p, Args&&... args) -> R {
        return std::invoke(*static_cast<Fn*>(p), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
  };

  void take(InlineFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }
  void reset() noexcept {
    if (ops_ == nullptr) return;
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->destroy(buf_);
  }

  alignas(kInlineCallbackAlign) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace gridvc
