#ifndef INSIGHTNOTES_NET_CLIENT_H_
#define INSIGHTNOTES_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.h"

namespace insight {

/// Small blocking client for the insightd wire protocol. One connection,
/// one outstanding request at a time (callers wanting concurrency open
/// one client per thread — see bench_net and the stress tests).
///
///   auto client = InsightClient::Connect("127.0.0.1", port);
///   auto result = client->Execute("SELECT * FROM Birds");
///   std::cout << result->ToString();
class InsightClient {
 public:
  static Result<std::unique_ptr<InsightClient>> Connect(
      const std::string& host, uint16_t port);

  ~InsightClient();

  InsightClient(const InsightClient&) = delete;
  InsightClient& operator=(const InsightClient&) = delete;

  /// Runs one statement; an Error frame comes back as the decoded Status
  /// (same code the embedded API would have returned). `wait_lsn` > 0
  /// asks a replica to hold the statement until its applied LSN reaches
  /// that value (read-your-writes); primaries satisfy it trivially.
  Result<NetResult> Execute(const std::string& sql, uint64_t wait_lsn = 0);

  /// Highest commit LSN any Execute on this connection has reported
  /// (0 before the first durable write). Feed into `wait_lsn` on a
  /// replica connection to observe your own writes.
  uint64_t last_commit_lsn() const { return last_commit_lsn_; }

  /// Asks a replica to assume the primary role; returns after the ack.
  Status Promote();

  /// True when `status` is a serialization conflict (first-writer-wins
  /// abort): the server already rolled the transaction back, so the
  /// client can safely retry the whole transaction from BEGIN. Transport
  /// failures and semantic errors are not retryable.
  static bool IsRetryable(const Status& status) {
    return status.IsAborted();
  }

  /// Whether the most recent Execute failure was retryable; false after a
  /// success or before any Execute.
  bool last_error_retryable() const { return last_error_retryable_; }

  /// Round-trip liveness probe.
  Status Ping();

  /// Prometheus text exposition of the server's metrics registry.
  Result<std::string> Metrics();

  /// Asks the server to drain and exit; returns after the ack.
  Status RequestShutdown();

  /// Closes the socket; further calls fail with IOError.
  void Close();

  bool connected() const { return fd_ >= 0; }

 private:
  explicit InsightClient(int fd) : fd_(fd) {}

  /// Reads exactly one frame (header, body, checksum verified).
  Result<Frame> ReadFrame();
  Status SendFrame(FrameType type, std::string_view payload);

  int fd_;
  bool last_error_retryable_ = false;
  uint64_t last_commit_lsn_ = 0;
};

/// Client-side read/write routing over a primary + replica fleet. The
/// first endpoint that accepts writes is the primary; SELECT / EXPLAIN /
/// ZOOM IN statements are load-balanced round-robin across the other
/// endpoints (falling back to the primary when no replica is healthy).
/// Reads carry the primary connection's last commit LSN as `wait_lsn`,
/// so a client always observes its own committed writes on any replica
/// (read-your-writes). A replica that drops mid-read or answers with a
/// redirect is retried on the next endpoint; writes are never retried
/// silently.
///
/// One outstanding request at a time, like InsightClient.
class RoutedClient {
 public:
  struct Endpoint {
    std::string host;
    uint16_t port = 0;
  };

  /// Connects lazily; `endpoints` must be non-empty. The primary is
  /// discovered on the first write (endpoints answering kReadOnly are
  /// skipped).
  static Result<std::unique_ptr<RoutedClient>> Make(
      std::vector<Endpoint> endpoints);

  /// Routes `sql` by its first keyword: SELECT / EXPLAIN / ZOOM go to a
  /// replica (round-robin with failover), everything else to the primary.
  Result<NetResult> Execute(const std::string& sql);

  /// Index into the endpoint list of the current primary, or -1 while
  /// undiscovered.
  int primary_index() const { return primary_; }

  /// Highest commit LSN observed across all writes.
  uint64_t last_commit_lsn() const { return last_commit_lsn_; }

  const std::vector<Endpoint>& endpoints() const { return endpoints_; }

 private:
  explicit RoutedClient(std::vector<Endpoint> endpoints)
      : endpoints_(std::move(endpoints)) {}

  /// True when the statement's first keyword marks it read-only. The
  /// route is chosen before any server parses the statement, so the SQL
  /// text is all there is to go on.
  static bool IsReadStatement(const std::string& sql);

  /// Returns a live connection to endpoint `i`, dialing if needed.
  Result<InsightClient*> Conn(size_t i);

  Result<NetResult> ExecuteWrite(const std::string& sql);
  Result<NetResult> ExecuteRead(const std::string& sql);

  const std::vector<Endpoint> endpoints_;
  std::vector<std::unique_ptr<InsightClient>> conns_;
  int primary_ = -1;
  size_t rr_next_ = 0;  // Round-robin cursor over read endpoints.
  uint64_t last_commit_lsn_ = 0;
};

}  // namespace insight

#endif  // INSIGHTNOTES_NET_CLIENT_H_
