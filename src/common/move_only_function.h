// Small-buffer move-only callable wrapper for hot paths that cannot
// afford std::function's copyability tax. Captures up to kInlineCapacity
// bytes live inside the object itself (no heap allocation); larger or
// over-aligned callables fall back to a single heap cell. Unlike
// std::function, moving never allocates and the wrapper accepts
// move-only captures (e.g. lambdas owning unique_ptr state).
//
// This is the event-queue payload type: the discrete-event hot loop
// pushes and pops millions of these, so steady-state operation must be
// allocation-free (see tests/move_only_function_test.cc, which asserts
// the inline threshold with a counting operator new).

#ifndef MEMSTREAM_COMMON_MOVE_ONLY_FUNCTION_H_
#define MEMSTREAM_COMMON_MOVE_ONLY_FUNCTION_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace memstream {

template <typename Signature>
class MoveOnlyFunction;  // undefined; only the R(Args...) form exists

template <typename R, typename... Args>
class MoveOnlyFunction<R(Args...)> {
 public:
  /// Largest capture stored inline. 48 bytes fits six pointers — the
  /// cycle-loop and fault events the servers schedule — while keeping the
  /// wrapper at one cache line alongside the heap-fallback pointer slot.
  /// Per-IO completions do not come through here: they are plain-data
  /// records on sim::FifoLane rings.
  static constexpr std::size_t kInlineCapacity = 48;

  /// True when a callable of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineCapacity &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  MoveOnlyFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, MoveOnlyFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  MoveOnlyFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = &InlineInvoke<D>;
      manage_ = &InlineManage<D>;
    } else {
      ::new (static_cast<void*>(storage_))
          D*(new D(std::forward<F>(f)));
      invoke_ = &HeapInvoke<D>;
      manage_ = &HeapManage<D>;
    }
  }

  MoveOnlyFunction(MoveOnlyFunction&& other) noexcept { MoveFrom(other); }

  MoveOnlyFunction& operator=(MoveOnlyFunction&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(other);
    }
    return *this;
  }

  MoveOnlyFunction(const MoveOnlyFunction&) = delete;
  MoveOnlyFunction& operator=(const MoveOnlyFunction&) = delete;

  ~MoveOnlyFunction() { Destroy(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// True when the held callable lives in the inline buffer (test hook;
  /// meaningless when empty).
  bool is_inline() const { return manage_ != nullptr && manage_(kQueryInline, nullptr, nullptr); }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  enum ManageOp { kDestroy, kMove, kQueryInline };

  using InvokeFn = R (*)(void*, Args&&...);
  // kDestroy: tear down `self`. kMove: move-construct `self`'s payload
  // into `dst` raw storage (and destroy self's). kQueryInline: report
  // inline-ness. Returns true for inline storage.
  using ManageFn = bool (*)(ManageOp, void* self, void* dst);

  template <typename D>
  static R InlineInvoke(void* storage, Args&&... args) {
    return (*std::launder(reinterpret_cast<D*>(storage)))(
        std::forward<Args>(args)...);
  }

  template <typename D>
  static bool InlineManage(ManageOp op, void* self, void* dst) {
    switch (op) {
      case kDestroy:
        std::launder(reinterpret_cast<D*>(self))->~D();
        break;
      case kMove: {
        D* src = std::launder(reinterpret_cast<D*>(self));
        ::new (dst) D(std::move(*src));
        src->~D();
        break;
      }
      case kQueryInline:
        break;
    }
    return true;
  }

  template <typename D>
  static R HeapInvoke(void* storage, Args&&... args) {
    return (**std::launder(reinterpret_cast<D**>(storage)))(
        std::forward<Args>(args)...);
  }

  template <typename D>
  static bool HeapManage(ManageOp op, void* self, void* dst) {
    switch (op) {
      case kDestroy:
        delete *std::launder(reinterpret_cast<D**>(self));
        break;
      case kMove: {
        D** src = std::launder(reinterpret_cast<D**>(self));
        ::new (dst) D*(*src);  // steal the heap cell; no allocation
        *src = nullptr;
        break;
      }
      case kQueryInline:
        return false;
    }
    return false;
  }

  void MoveFrom(MoveOnlyFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) manage_(kMove, other.storage_, storage_);
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void Destroy() noexcept {
    if (manage_ != nullptr) manage_(kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace memstream

#endif  // MEMSTREAM_COMMON_MOVE_ONLY_FUNCTION_H_
