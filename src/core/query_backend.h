#pragma once

#include <future>
#include <memory>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "core/query_types.h"

/// \file query_backend.h
/// The abstract serving surface of the stack. It has one implementation,
/// core::QueryService (query_service.h), which serves one snapshot, a
/// sealed sharded repository (through the named constructor
/// repo::ShardedQueryService) or a live ingesting repository
/// (repo::LiveQueryService) with one per-shard evaluator. Benches,
/// examples and the backend-conformance suite
/// (tests/query_backend_test.cc) are written once against its four verbs:
///
///   Submit(QueryRequest)        -> std::future<QueryResponse>
///   SubmitBatch(requests)       -> one future per request
///   CancelPending()             -> fail queued-but-unstarted requests
///   UpdateView(ServingView)     -> hot-swap what is being served
///
/// A service serves the one view type it was constructed with — a
/// SummarySnapshot, a RepositorySnapshot, a LiveRepository — and the view
/// travels through the type-erased ServingView so the interface can live
/// in core without core depending on the repo layer. Handing a service
/// another view type throws std::invalid_argument; nothing is swapped.
///
/// Thread-safety contract: all four verbs are safe from any number of
/// threads; UpdateView is an atomic swap that never blocks serving, and
/// every in-flight request finishes entirely on the views it pinned at
/// evaluation start; destruction drains every submitted future.

namespace ppq::core {

/// \brief Type-erased immutable serving view: a shared_ptr<const T> plus
/// the identity of T, so a backend can recover (and validate) the one
/// view type it serves without the interface naming every such type.
class ServingView {
 public:
  ServingView() = default;

  /// Implicit by design: callers write UpdateView(seal) with whatever
  /// typed pointer they hold. Const and non-const element types are
  /// accepted; the view stores (and hands back) const access only.
  template <typename T>
  ServingView(std::shared_ptr<T> view)  // NOLINT(google-explicit-constructor)
      : handle_(std::static_pointer_cast<const std::remove_const_t<T>>(
            std::move(view))),
        type_(&typeid(std::remove_const_t<T>)) {}

  /// Whether the view was constructed from a shared_ptr<[const] T>
  /// (regardless of whether that pointer was null).
  template <typename T>
  bool Holds() const {
    return type_ != nullptr && *type_ == typeid(std::remove_const_t<T>);
  }

  /// The held pointer as shared_ptr<const T>, or null when the view holds
  /// a different type (use Holds<T>() to tell a null T view apart).
  template <typename T>
  std::shared_ptr<const T> As() const {
    if (!Holds<T>()) return nullptr;
    return std::static_pointer_cast<const T>(handle_);
  }

 private:
  std::shared_ptr<const void> handle_;
  const std::type_info* type_ = nullptr;
};

/// \brief Abstract futures-based query serving backend.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// \brief Submit one request for asynchronous evaluation. Returns
  /// immediately; the future resolves when a worker has evaluated the
  /// request (or it was cancelled). Safe from any thread.
  virtual std::future<QueryResponse> Submit(QueryRequest request) = 0;

  /// \brief Submit a batch; futures[i] answers requests[i]. Equivalent to
  /// calling Submit per element but enqueues under one lock.
  virtual std::vector<std::future<QueryResponse>> SubmitBatch(
      std::vector<QueryRequest> requests) = 0;

  /// \brief Fail every queued-but-unstarted request with
  /// StatusCode::kCancelled (their futures resolve immediately with an
  /// empty payload). Requests already being evaluated complete normally.
  /// Returns the number cancelled.
  virtual size_t CancelPending() = 0;

  /// \brief Hot-swap the served view. The swap is atomic and never blocks
  /// serving: in-flight requests finish on the view they pinned, later
  /// dispatches see the new one. \throws std::invalid_argument when \p
  /// view does not hold the service's view type, is null, or fails the
  /// construction-time validation; the served view is then unchanged.
  virtual void UpdateView(ServingView view) = 0;

  /// Dedicated serving workers of this backend.
  virtual size_t num_threads() const = 0;
};

}  // namespace ppq::core
