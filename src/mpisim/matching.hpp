// MPI point-to-point matching, the one engine both mpisim backends share. It
// implements the matching contract MUST checks applications against: source
// and tag wildcards, oldest-first order (a receive and an arrival each take
// the oldest accepting partner, as one merged queue per destination would),
// truncation, and type-signature agreement. It also makes the wildcard-
// receive schedule decision (Site::kMatchRecv), so a pinned or recorded
// decision steers both backends the same way.
//
// A backend keeps one Mailbox per (destination rank, communicator) and adds
// only what differs between ranks-as-threads and ranks-as-processes: the
// lock around a Mailbox (a proc rank's mailboxes belong to one process and
// need none), blocking and wakeups, the progress watchdog, and getting the
// bytes to the destination. Header-only, so the thread backend's send and
// receive path gains no call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/counters.hpp"
#include "mpisim/datatype.hpp"
#include "schedsim/controller.hpp"

namespace mpisim {

/// Consecutive incomplete Test calls before the rank counts as soft-blocked.
inline constexpr int kSoftBlockThreshold = 64;

[[nodiscard]] constexpr bool tag_accepts(int want_tag, int tag) {
  return want_tag == kAnyTag || want_tag == tag;
}

/// An arrived message no receive has matched yet.
struct Message {
  int src{};
  int tag{};
  std::uint64_t epoch{};           ///< mailbox arrival order (set when queued)
  std::vector<std::byte> payload;  ///< packed representation
  std::vector<Scalar> signature;   ///< sender's type signature (MUST metadata)
};

/// A posted receive no message has matched yet.
struct PostedRecv {
  int source{};
  int tag{};
  std::uint64_t epoch{};  ///< mailbox posting order (set when queued)
  void* buffer{};
  std::size_t count{};
  Datatype type;
  Request* request{};  ///< completion target
};

/// The matching queues of one destination rank in one communicator:
/// per-source FIFO sub-queues, a wildcard (ANY_SOURCE) posted queue, and a
/// channel epoch counter that totally orders entries across the sub-queues,
/// so wildcard matching still picks the oldest, as a single merged queue
/// would. Not synchronized: the backend serializes access.
class Mailbox {
 public:
  explicit Mailbox(int size) : by_src_(static_cast<std::size_t>(size)) {}

  /// An arrival from `src` with `tag`: take the oldest posted receive that
  /// accepts it. That is the head tag-acceptor of src's posted queue or of
  /// the wildcard queue, the lower epoch being the one a merged queue would
  /// have found first.
  [[nodiscard]] std::optional<PostedRecv> take_posted(int src, int tag) {
    std::deque<PostedRecv>& per_src = by_src_[static_cast<std::size_t>(src)].posted;
    const auto accepts = [tag](const PostedRecv& p) { return tag_accepts(p.tag, tag); };
    const auto specific = std::find_if(per_src.begin(), per_src.end(), accepts);
    const auto wildcard = std::find_if(wildcard_.begin(), wildcard_.end(), accepts);
    const bool have_specific = specific != per_src.end();
    const bool have_wildcard = wildcard != wildcard_.end();
    if (!have_specific && !have_wildcard) {
      return std::nullopt;
    }
    if (have_specific && (!have_wildcard || specific->epoch < wildcard->epoch)) {
      PostedRecv posted = std::move(*specific);
      per_src.erase(specific);
      return posted;
    }
    PostedRecv posted = std::move(*wildcard);
    wildcard_.erase(wildcard);
    return posted;
  }

  /// Queue an arrival that no posted receive accepted.
  void queue_unexpected(Message msg) {
    msg.epoch = next_epoch_++;
    by_src_[static_cast<std::size_t>(msg.src)].unexpected.push_back(std::move(msg));
  }

  /// A receive posted by `rank` for (source, tag): take the matching
  /// unexpected message, if one has arrived.
  [[nodiscard]] std::optional<Message> take_unexpected(int rank, int source, int tag) {
    Match match;
    if (source != kAnySource) {
      match = find(source, tag);
    } else {
      // ANY_SOURCE slow path. Per-channel FIFO is MPI law (non-overtaking),
      // but the epoch order *across* senders is a timing artifact, exactly
      // the nondeterminism a wildcard receive observes. So when the schedule
      // controller is armed it picks among the channel heads.
      detail::contention("mpisim.any_source_scans").increment();
      match = schedsim::Controller::armed() ? choose_head(rank, tag) : find(source, tag);
    }
    if (match.queue == nullptr) {
      return std::nullopt;
    }
    Message msg = std::move(*match.it);
    match.queue->erase(match.it);
    return msg;
  }

  /// Queue a receive that no unexpected message matched.
  void post(PostedRecv posted) {
    posted.epoch = next_epoch_++;
    if (posted.source != kAnySource) {
      by_src_[static_cast<std::size_t>(posted.source)].posted.push_back(std::move(posted));
    } else {
      wildcard_.push_back(std::move(posted));
    }
  }

  /// The envelope a probe for (source, tag) reports, without taking the
  /// message. Probing decides nothing, so ANY_SOURCE reports the oldest
  /// candidate without asking the schedule controller.
  [[nodiscard]] std::optional<Status> peek(int source, int tag) {
    if (source == kAnySource) {
      detail::contention("mpisim.any_source_scans").increment();
    }
    const Match match = find(source, tag);
    if (match.queue == nullptr) {
      return std::nullopt;
    }
    return Status{match.it->src, match.it->tag, match.it->payload.size(), MpiError::kSuccess};
  }

 private:
  using MessageQueue = std::deque<Message>;

  /// One source channel within the mailbox.
  struct SrcQueues {
    MessageQueue unexpected;         ///< arrived, not yet matched
    std::deque<PostedRecv> posted;   ///< posted with this specific source
  };

  /// An unexpected message and the queue holding it (queue null: none).
  struct Match {
    MessageQueue* queue{nullptr};
    MessageQueue::iterator it;
  };

  [[nodiscard]] static MessageQueue::iterator first_accepting(MessageQueue& q, int tag) {
    return std::find_if(q.begin(), q.end(),
                        [tag](const Message& m) { return tag_accepts(tag, m.tag); });
  }

  /// The free schedule's match for (source, tag): the source channel's head
  /// tag-acceptor or, for ANY_SOURCE, the oldest (lowest epoch) head
  /// tag-acceptor of every source channel.
  [[nodiscard]] Match find(int source, int tag) {
    Match found;
    if (source != kAnySource) {
      MessageQueue& q = by_src_[static_cast<std::size_t>(source)].unexpected;
      const auto it = first_accepting(q, tag);
      if (it != q.end()) {
        found = {&q, it};
      }
      return found;
    }
    for (SrcQueues& src_q : by_src_) {
      const auto it = first_accepting(src_q.unexpected, tag);
      if (it != src_q.unexpected.end() &&
          (found.queue == nullptr || it->epoch < found.it->epoch)) {
        found = {&src_q.unexpected, it};
      }
    }
    return found;
  }

  /// The armed controller's match for an ANY_SOURCE receive by `rank`: one
  /// decision among the channel heads, candidate 0 being the oldest (the
  /// free schedule's answer).
  [[nodiscard]] Match choose_head(int rank, int tag) {
    std::vector<Match> heads;
    for (SrcQueues& src_q : by_src_) {
      const auto it = first_accepting(src_q.unexpected, tag);
      if (it != src_q.unexpected.end()) {
        heads.push_back({&src_q.unexpected, it});
      }
    }
    if (heads.empty()) {
      return {};
    }
    std::sort(heads.begin(), heads.end(),
              [](const Match& a, const Match& b) { return a.it->epoch < b.it->epoch; });
    const int pick = schedsim::Controller::instance().choose(
        schedsim::Site::kMatchRecv, rank, static_cast<int>(heads.size()), 0);
    return heads[static_cast<std::size_t>(pick)];
  }

  std::uint64_t next_epoch_{0};
  std::vector<SrcQueues> by_src_;
  std::deque<PostedRecv> wildcard_;
};

/// Unpack a matched message into the posted receive's buffer and return the
/// receive's Status; the backend completes the request with it. A message
/// longer than the buffer is cut to fit and reports kTruncate. The type
/// signatures must agree scalar for scalar over the delivered prefix (MUST's
/// send/recv type matching), except that a side typed entirely as
/// MPI_BYTE/MPI_CHAR is an untyped view and matches anything of the same
/// byte length.
[[nodiscard]] inline Status deliver(int src, int tag, std::span<const std::byte> payload,
                                    std::span<const Scalar> signature,
                                    const PostedRecv& posted) {
  const std::size_t elem_packed = posted.type.packed_size();
  const std::size_t msg_elems = elem_packed != 0 ? payload.size() / elem_packed : 0;
  const bool truncated = msg_elems > posted.count;
  const std::size_t deliver_elems = truncated ? posted.count : msg_elems;
  posted.type.unpack(payload.data(), deliver_elems, posted.buffer);

  const auto all_byte_like = [](std::span<const Scalar> sig) {
    return std::all_of(sig.begin(), sig.end(),
                       [](Scalar s) { return s == Scalar::kByte || s == Scalar::kChar; });
  };
  std::vector<Scalar> recv_sig;
  posted.type.signature(deliver_elems, recv_sig);
  const bool mismatch =
      !all_byte_like(recv_sig) && !all_byte_like(signature) &&
      (recv_sig.size() > signature.size() ||
       !std::equal(recv_sig.begin(), recv_sig.end(), signature.begin()));

  CUSAN_ASSERT(posted.request != nullptr);
  return Status{src, tag, deliver_elems * elem_packed,
                truncated ? MpiError::kTruncate : MpiError::kSuccess, mismatch};
}

[[nodiscard]] inline Status deliver(const Message& msg, const PostedRecv& posted) {
  return deliver(msg.src, msg.tag, msg.payload, msg.signature, posted);
}

}  // namespace mpisim
