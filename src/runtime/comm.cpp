#include "runtime/comm.hpp"

#include <cstring>
#include <exception>
#include <thread>

#include "util/check.hpp"

namespace kpm::runtime {

MessageHub::MessageHub(int size)
    : size_(size),
      boxes_(size),
      collective_keys_(static_cast<std::size_t>(size), 0) {
  require(size >= 1, "MessageHub: need at least one rank");
  // Pre-register the pairwise reduction channels (src * size + dst), so
  // allreduce_sum never touches the registration lock.  Buffers start empty
  // and grow to the reduction length on first use, then stay.
  channels_.resize(static_cast<std::size_t>(size) * size);
  for (auto& ch : channels_) ch.counted = false;
}

void MessageHub::send(int src, int dst, int tag,
                      std::vector<std::byte> payload) {
  require(dst >= 0 && dst < size_, "send: destination out of range");
  Mailbox& box = boxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard lock(box.m);
    bytes_sent_ += static_cast<std::int64_t>(payload.size());
    staged_messages_ += 1;
    messages_sent_ += 1;
    box.queue.push_back({src, tag, std::move(payload)});
  }
  box.cv.notify_all();
}

std::vector<std::byte> MessageHub::recv(int dst, int src, int tag) {
  require(dst >= 0 && dst < size_, "recv: rank out of range");
  Mailbox& box = boxes_[static_cast<std::size_t>(dst)];
  std::unique_lock lock(box.m);
  for (;;) {
    if (cancelled()) throw CancelledError();
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        std::vector<std::byte> payload = std::move(it->payload);
        box.queue.erase(it);
        return payload;
      }
    }
    box.cv.wait(lock);
  }
}

// --- Persistent channels ---------------------------------------------------

int MessageHub::channel(int src, int dst, int key) {
  require(src >= 0 && src < size_ && dst >= 0 && dst < size_ && src != dst,
          "channel: rank pair out of range");
  std::lock_guard lock(channels_m_);
  const auto [it, inserted] =
      channel_ids_.try_emplace(std::tuple{src, dst, key}, 0);
  if (inserted) {
    channels_.emplace_back();
    it->second = static_cast<int>(channels_.size()) - 1;
  }
  return it->second;
}

int MessageHub::next_collective_key(int rank) {
  require(rank >= 0 && rank < size_, "next_collective_key: rank out of range");
  // Each rank advances only its own counter; collective construction order
  // keeps the counters in lockstep, so no lock is needed.
  return collective_keys_[static_cast<std::size_t>(rank)]++;
}

MessageHub::Channel& MessageHub::chan(int id) {
  // The deque never erases and emplace_back keeps element references valid,
  // so the returned reference outlives the lock — but the lookup itself must
  // hold channels_m_: another rank may be registering a channel (deque map
  // reallocation) while this one communicates on an established channel.
  std::lock_guard lock(channels_m_);
  require(id >= 0 && id < static_cast<int>(channels_.size()),
          "channel id out of range");
  return channels_[static_cast<std::size_t>(id)];
}

std::span<std::byte> MessageHub::channel_acquire(int id, std::size_t bytes) {
  Channel& ch = chan(id);
  {
    std::unique_lock lock(ch.m);
    ch.cv.wait(lock, [&] { return !ch.full || cancelled(); });
    if (cancelled()) throw CancelledError();
  }
  // Sole owner while empty: safe to (re)size and fill without the lock.
  if (ch.buf.size() < bytes) ch.buf.resize(bytes);
  ch.size = bytes;
  return {ch.buf.data(), bytes};
}

void MessageHub::channel_post(int id) {
  Channel& ch = chan(id);
  {
    std::lock_guard lock(ch.m);
    ch.full = true;
    if (ch.counted) {
      bytes_sent_ += static_cast<std::int64_t>(ch.size);
      messages_sent_ += 1;
    }
  }
  ch.cv.notify_all();
}

std::span<const std::byte> MessageHub::channel_receive(int id) {
  Channel& ch = chan(id);
  std::unique_lock lock(ch.m);
  ch.cv.wait(lock, [&] { return ch.full || cancelled(); });
  if (cancelled()) throw CancelledError();
  return {ch.buf.data(), ch.size};
}

void MessageHub::channel_release(int id) {
  Channel& ch = chan(id);
  {
    std::lock_guard lock(ch.m);
    ch.full = false;
  }
  ch.cv.notify_all();
}

// --- Cancellation / reuse ---------------------------------------------------

void MessageHub::cancel() {
  cancelled_.store(true, std::memory_order_release);
  for (auto& box : boxes_) {
    std::lock_guard lock(box.m);  // pairs the flag with the waiters' lock
    box.cv.notify_all();
  }
  {
    std::lock_guard lock(sync_m_);
    sync_cv_.notify_all();
  }
  std::lock_guard lock(channels_m_);
  for (auto& ch : channels_) {
    std::lock_guard chlock(ch.m);
    ch.cv.notify_all();
  }
}

void MessageHub::reset() {
  cancelled_.store(false, std::memory_order_release);
  for (auto& box : boxes_) box.queue.clear();
  barrier_count_ = 0;
  std::lock_guard lock(channels_m_);
  channel_ids_.clear();
  // Drop the dynamically-registered channels; the pre-registered reduction
  // channels (the size*size prefix) keep their grown buffers.
  const auto reduce_prefix =
      static_cast<std::size_t>(size_) * static_cast<std::size_t>(size_);
  while (channels_.size() > reduce_prefix) channels_.pop_back();
  for (auto& ch : channels_) {
    ch.full = false;
    ch.size = 0;
  }
  std::fill(collective_keys_.begin(), collective_keys_.end(), 0);
}

// --- Collectives -----------------------------------------------------------

void MessageHub::barrier() {
  std::unique_lock lock(sync_m_);
  if (cancelled()) throw CancelledError();
  const std::uint64_t gen = barrier_generation_;
  if (++barrier_count_ == size_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    sync_cv_.notify_all();
  } else {
    sync_cv_.wait(lock, [&] { return barrier_generation_ != gen || cancelled(); });
    if (barrier_generation_ == gen) throw CancelledError();
  }
}

void MessageHub::reduce_send(int src, int dst, std::span<const double> data) {
  const int id = reduce_channel_id(src, dst);
  ChannelWrite msg(*this, id, data.size_bytes());
  std::memcpy(msg.data().data(), data.data(), data.size_bytes());
  msg.post();
  reduction_bytes_ += static_cast<std::int64_t>(data.size_bytes());
}

template <class F>
void MessageHub::reduce_recv(int src, int dst, std::size_t count, F&& f) {
  const int id = reduce_channel_id(src, dst);
  const ChannelRead msg(*this, id);
  require(msg.data().size() == count * sizeof(double),
          "allreduce: mismatched lengths across ranks");
  const double* theirs = reinterpret_cast<const double*>(msg.data().data());
  for (std::size_t i = 0; i < count; ++i) f(theirs[i], i);
}

void MessageHub::allreduce_sum(int rank, std::span<double> data) {
  require(rank >= 0 && rank < size_, "allreduce: rank out of range");
  if (rank == 0) ++reductions_done_;
  if (size_ == 1) return;

  // Recursive doubling with the standard non-power-of-two fold: the `rem`
  // extra ranks (>= p2) fold their contribution into a base rank up front
  // and receive the finished total at the end.  Every combine is
  // `mine + theirs` of two disjoint group sums along a fixed tree, and IEEE
  // addition is commutative, so all ranks produce identical bits.
  int p2 = 1;
  while (p2 * 2 <= size_) p2 *= 2;
  const int rem = size_ - p2;
  const std::size_t n = data.size();

  if (rank >= p2) {
    reduce_send(rank, rank - p2, data);
    reduce_recv(rank - p2, rank, n,
                [&](double v, std::size_t i) { data[i] = v; });
    return;
  }
  if (rank < rem) {
    reduce_recv(rank + p2, rank, n,
                [&](double v, std::size_t i) { data[i] += v; });
  }
  for (int mask = 1; mask < p2; mask <<= 1) {
    const int partner = rank ^ mask;
    reduce_send(rank, partner, data);
    reduce_recv(partner, rank, n,
                [&](double v, std::size_t i) { data[i] += v; });
  }
  if (rank < rem) reduce_send(rank, rank + p2, data);
}

std::int64_t MessageHub::reduction_count() const noexcept {
  return reductions_done_.load(std::memory_order_relaxed);
}

std::int64_t MessageHub::bytes_sent() const noexcept {
  return bytes_sent_.load(std::memory_order_relaxed);
}

std::int64_t MessageHub::reduction_bytes_sent() const noexcept {
  return reduction_bytes_.load(std::memory_order_relaxed);
}

std::int64_t MessageHub::staged_messages() const noexcept {
  return staged_messages_.load(std::memory_order_relaxed);
}

std::int64_t MessageHub::messages_sent() const noexcept {
  return messages_sent_.load(std::memory_order_relaxed);
}

namespace {

template <class T>
std::vector<std::byte> pack(std::span<const T> data) {
  std::vector<std::byte> bytes(data.size_bytes());
  // An empty span may carry null pointers, which memcpy must not see.
  if (!data.empty()) {
    std::memcpy(bytes.data(), data.data(), data.size_bytes());
  }
  return bytes;
}

}  // namespace

void Communicator::send_bytes(int dst, int tag,
                              std::span<const std::byte> data) {
  hub_->send(rank_, dst, tag, std::vector<std::byte>(data.begin(), data.end()));
}

void Communicator::send_bytes(int dst, int tag, std::vector<std::byte>&& data) {
  hub_->send(rank_, dst, tag, std::move(data));
}

std::vector<std::byte> Communicator::recv_bytes(int src, int tag) {
  return hub_->recv(rank_, src, tag);
}

void Communicator::send(int dst, int tag, std::span<const complex_t> data) {
  hub_->send(rank_, dst, tag, pack(data));
}

void Communicator::recv(int src, int tag, std::span<complex_t> out) {
  const auto bytes = hub_->recv(rank_, src, tag);
  require(bytes.size() == out.size_bytes(), "recv: unexpected message size");
  if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
}

void Communicator::send(int dst, int tag, std::span<const global_index> data) {
  hub_->send(rank_, dst, tag, pack(data));
}

std::vector<global_index> Communicator::recv_indices(int src, int tag) {
  const auto bytes = hub_->recv(rank_, src, tag);
  require(bytes.size() % sizeof(global_index) == 0,
          "recv_indices: unexpected message size");
  std::vector<global_index> out(bytes.size() / sizeof(global_index));
  if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

void Communicator::allreduce_sum(std::span<complex_t> data) {
  // complex_t is two contiguous doubles.
  hub_->allreduce_sum(
      rank_, std::span<double>(reinterpret_cast<double*>(data.data()),
                               data.size() * 2));
}

void Communicator::broadcast(int root, std::span<complex_t> data) {
  require(root >= 0 && root < size(), "broadcast: root out of range");
  constexpr int tag_bcast = -100;
  if (rank_ == root) {
    for (int peer = 0; peer < size(); ++peer) {
      if (peer != root) send(peer, tag_bcast, data);
    }
  } else {
    recv(root, tag_bcast, data);
  }
}

void Communicator::allgather(std::span<complex_t> data) {
  const int p = size();
  require(p > 0 && data.size() % static_cast<std::size_t>(p) == 0,
          "allgather: data size must be a multiple of the rank count");
  const std::size_t chunk = data.size() / static_cast<std::size_t>(p);
  constexpr int tag_gather = -101;
  const auto mine = data.subspan(static_cast<std::size_t>(rank_) * chunk, chunk);
  for (int peer = 0; peer < p; ++peer) {
    if (peer != rank_) {
      send(peer, tag_gather, std::span<const complex_t>(mine));
    }
  }
  for (int peer = 0; peer < p; ++peer) {
    if (peer != rank_) {
      recv(peer, tag_gather,
           data.subspan(static_cast<std::size_t>(peer) * chunk, chunk));
    }
  }
}

double fixed_tree_sum(std::span<const double> contributions) {
  const auto p = contributions.size();
  require(p >= 1, "fixed_tree_sum: need at least one contribution");
  // Rank 0's combine sequence in allreduce_sum — fold-in of the extra ranks
  // first, then the recursive-doubling partners in mask order.  IEEE
  // addition is commutative, so every rank's sequence yields these bits.
  std::vector<double> vals(contributions.begin(), contributions.end());
  std::size_t p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  for (std::size_t r = 0; r + p2 < p; ++r) vals[r] += vals[r + p2];
  for (std::size_t mask = 1; mask < p2; mask <<= 1) {
    for (std::size_t r = 0; r < p2; r += 2 * mask) vals[r] += vals[r + mask];
  }
  return vals[0];
}

void run_ranks(MessageHub& hub, const std::function<void(Communicator&)>& body) {
  const int nranks = hub.size();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        Communicator comm(hub, r);
        body(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Unblock the peers: without this, a rank dying mid-collective
        // leaves the others waiting forever and the join never completes.
        hub.cancel();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Prefer the root cause: a CancelledError is the *consequence* of another
  // rank's failure, so rethrow it only when nothing else went wrong.
  std::exception_ptr first_cancel;
  for (const auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const CancelledError&) {
      if (!first_cancel) first_cancel = e;
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (first_cancel) std::rethrow_exception(first_cancel);
}

void run_ranks(int nranks, const std::function<void(Communicator&)>& body) {
  require(nranks >= 1, "run_ranks: need at least one rank");
  MessageHub hub(nranks);
  run_ranks(hub, body);
}

}  // namespace kpm::runtime
