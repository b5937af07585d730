#include "obs/obs_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/http.h"
#include "telemetry/registry.h"
#include "telemetry/thread_registry.h"
#include "telemetry/trace.h"
#include "util/stopwatch.h"

namespace fcp::obs {

/// Per-connection state, owned by the poll thread.
struct ObsServer::Connection {
  int fd = -1;
  std::string in;       ///< bytes received so far (request head)
  std::string out;      ///< rendered response
  size_t out_sent = 0;  ///< bytes of `out` already written
  bool responding = false;
};

ObsServer::ObsServer(ObsServerOptions options) : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    requests_counter_ =
        options_.metrics->GetCounter("fcp_obs_requests_total");
    rejected_counter_ =
        options_.metrics->GetCounter("fcp_obs_connections_rejected_total");
    bad_requests_counter_ =
        options_.metrics->GetCounter("fcp_obs_bad_requests_total");
  }
}

ObsServer::~ObsServer() { Stop(); }

void ObsServer::SetHandler(std::string path, Handler handler) {
  EnsureScrapeHistogram(path);
  handlers_[std::move(path)] = std::move(handler);
}

void ObsServer::SetQueryHandler(std::string path, QueryHandler handler) {
  EnsureScrapeHistogram(path);
  query_handlers_[std::move(path)] = std::move(handler);
}

void ObsServer::EnsureScrapeHistogram(const std::string& path) {
  if (options_.metrics == nullptr) return;
  if (scrape_histograms_.count(path) != 0) return;
  scrape_histograms_[path] = options_.metrics->GetHistogram(
      "fcp_obs_scrape_duration_us{" +
      telemetry::FormatLabel("endpoint", path) + "}");
}

void ObsServer::RecordScrapeDuration(const std::string& path,
                                     int64_t micros) {
  auto it = scrape_histograms_.find(path);
  if (it != scrape_histograms_.end()) {
    it->second->Record(micros < 0 ? 0 : static_cast<uint64_t>(micros));
  }
}

Status ObsServer::Start() {
  if (started_) return Status::FailedPrecondition("ObsServer already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    Stop();
    return Status::InvalidArgument("unparseable listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Status::Internal("bind " + options_.host + ":" +
                                 std::to_string(options_.port) + ": " +
                                 std::strerror(errno));
    Stop();
    return st;
  }
  if (::listen(listen_fd_, 64) != 0) {
    Status st = Status::Internal(std::string("listen: ") +
                                 std::strerror(errno));
    Stop();
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_.store(ntohs(bound.sin_port), std::memory_order_release);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Stop();
    return Status::Internal("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  started_ = true;
  thread_ = std::thread(&ObsServer::Loop, this);
  return Status::OK();
}

void ObsServer::Stop() {
  if (started_) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    thread_.join();
    started_ = false;
  }
  for (auto& [fd, conn] : connections_) {
    ::close(fd);
    delete conn;
  }
  connections_.clear();
  if (wake_fd_ >= 0) { ::close(wake_fd_); wake_fd_ = -1; }
  if (epoll_fd_ >= 0) { ::close(epoll_fd_); epoll_fd_ = -1; }
  if (listen_fd_ >= 0) { ::close(listen_fd_); listen_fd_ = -1; }
}

void ObsServer::Loop() {
  telemetry::ThreadScope scope("obs-server");
  constexpr int kMaxEvents = 32;
  epoll_event events[kMaxEvents];
  for (;;) {
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) return;  // Stop() requested
      if (fd == listen_fd_) {
        AcceptAll();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection* conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      // HandleReadable may have closed or switched the connection to
      // writing; re-check it is still tracked before handling EPOLLOUT.
      it = connections_.find(fd);
      if (it != connections_.end() && (events[i].events & EPOLLOUT) &&
          it->second->responding) {
        HandleWritable(it->second);
      }
    }
  }
}

void ObsServer::AcceptAll() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: wait for next wakeup
    auto* conn = new Connection();
    conn->fd = fd;
    if (connections_.size() >= kMaxConnections) {
      // Over the cap: answer 503 immediately (best-effort, the socket
      // buffer always has room for a short response) and close.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      if (rejected_counter_ != nullptr) rejected_counter_->Increment();
      std::string resp = RenderHttpResponse(
          503, "text/plain; charset=utf-8", "connection limit reached\n");
      [[maybe_unused]] ssize_t n = ::write(fd, resp.data(), resp.size());
      ::close(fd);
      delete conn;
      continue;
    }
    connections_[fd] = conn;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void ObsServer::HandleReadable(Connection* conn) {
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      if (conn->in.size() > kMaxRequestBytes) {
        if (bad_requests_counter_ != nullptr) bad_requests_counter_->Increment();
        conn->out = RenderHttpResponse(431, "text/plain; charset=utf-8",
                                       "request too large\n");
        conn->responding = true;
        break;
      }
      continue;
    }
    if (n == 0) {  // peer closed before a full request arrived
      if (!conn->responding) {
        CloseConnection(conn);
        return;
      }
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn);
    return;
  }

  if (!conn->responding) {
    StageResponse(conn);
    if (!conn->responding) return;  // request still incomplete
  }

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  HandleWritable(conn);
}

void ObsServer::StageResponse(Connection* conn) {
  HttpRequest req;
  switch (ParseHttpRequest(conn->in, &req)) {
    case ParseResult::kIncomplete:
      return;
    case ParseResult::kBad: {
      if (bad_requests_counter_ != nullptr) bad_requests_counter_->Increment();
      conn->out = RenderHttpResponse(400, "text/plain; charset=utf-8",
                                     "malformed request\n");
      conn->responding = true;
      return;
    }
    case ParseResult::kOk:
      break;
  }

  const bool head_only = req.method == "HEAD";
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (requests_counter_ != nullptr) requests_counter_->Increment();

  if (req.method != "GET" && req.method != "HEAD") {
    conn->out = RenderHttpResponse(405, "text/plain; charset=utf-8",
                                   "read-only server: GET/HEAD only\n");
    conn->responding = true;
    return;
  }
  auto qit = query_handlers_.find(req.target);
  auto it = handlers_.find(req.target);
  if (qit == query_handlers_.end() && it == handlers_.end()) {
    conn->out = RenderHttpResponse(404, "text/plain; charset=utf-8",
                                   "unknown endpoint\n", head_only);
    conn->responding = true;
    return;
  }
  trace::Span span("obs/scrape");
  const Stopwatch scrape;
  HttpResponse resp =
      qit != query_handlers_.end() ? qit->second(req.query) : it->second();
  RecordScrapeDuration(req.target, scrape.ElapsedNanos() / 1000);
  conn->out = RenderHttpResponse(resp.status, resp.content_type, resp.body,
                                 head_only);
  conn->responding = true;
}

void ObsServer::HandleWritable(Connection* conn) {
  while (conn->out_sent < conn->out.size()) {
    ssize_t n = ::write(conn->fd, conn->out.data() + conn->out_sent,
                        conn->out.size() - conn->out_sent);
    if (n > 0) {
      conn->out_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    break;  // peer went away; close below
  }
  CloseConnection(conn);
}

void ObsServer::CloseConnection(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  connections_.erase(conn->fd);
  ::close(conn->fd);
  delete conn;
}

}  // namespace fcp::obs
