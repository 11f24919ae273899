// The VRMU rollback queue (Section 5.1): a FIFO with one entry per
// in-flight instruction, recording which physical registers it touched
// and whether it is a memory operation.
//
//  * decode pushes an entry;
//  * commit pops the oldest entry (its registers keep C = 1);
//  * a context-switch flush compacts all remaining entries into a
//    one-hot vector and resets the C bits of those registers, marking
//    them "will be replayed soon -- retain";
//  * the oldest entry's memory-op flag feeds the CSL switch mask.
//
// The depth is fixed at construction, so the FIFO is a ring buffer
// allocated once: push/pop on the per-instruction path never touch the
// heap.
#pragma once

#include <array>
#include <vector>

#include "core/tag_store.hpp"

namespace virec::core {

class RollbackQueue {
 public:
  explicit RollbackQueue(u32 depth);

  struct Entry {
    u32 count = 0;
    std::array<u16, 4> phys{};
    std::array<u8, 4> tid{};
    std::array<isa::RegId, 4> arch{};
    bool is_mem = false;
  };

  /// Push a decoded instruction's register set. The queue depth equals
  /// the processor backend capacity, so overflow indicates a pipeline
  /// modelling bug; it throws.
  void push(const Entry& entry);

  /// Commit the oldest in-flight instruction.
  void pop_oldest();

  /// Context-switch flush: reset C bits of every queued register whose
  /// mapping is still current, then clear the queue.
  void flush_to(TagStore& tags);

  /// Wrong-path discard (branch misprediction, post-halt fetch): drop
  /// entries without touching C bits.
  void clear() { size_ = 0; }

  /// CSL mask input: is the oldest in-flight instruction a memory op?
  bool oldest_is_mem() const { return size_ > 0 && ring_[head_].is_mem; }

  u32 size() const { return size_; }
  bool empty() const { return size_ == 0; }
  u32 depth() const { return depth_; }

  /// Checkpoint the in-flight entries (oldest first).
  void save_state(ckpt::Encoder& enc) const {
    enc.put_u32(size_);
    for (u32 i = 0; i < size_; ++i) {
      const Entry& e = at(i);
      enc.put_u32(e.count);
      for (u16 p : e.phys) enc.put_u16(p);
      for (u8 t : e.tid) enc.put_u8(t);
      for (isa::RegId a : e.arch) enc.put_u8(a);
      enc.put_bool(e.is_mem);
    }
  }
  void restore_state(ckpt::Decoder& dec) {
    clear();
    const u32 n = dec.get_u32();
    if (n > depth_) {
      throw ckpt::CkptError("RollbackQueue: snapshot deeper than queue");
    }
    for (u32 i = 0; i < n; ++i) {
      Entry e;
      e.count = dec.get_u32();
      if (e.count > e.phys.size()) {
        throw ckpt::CkptError("RollbackQueue: entry register count too large");
      }
      for (u16& p : e.phys) p = dec.get_u16();
      for (u8& t : e.tid) t = dec.get_u8();
      for (isa::RegId& a : e.arch) a = dec.get_u8();
      e.is_mem = dec.get_bool();
      push(e);
    }
  }

 private:
  /// Ring slot @p i places after the oldest entry (i < depth_).
  u32 slot(u32 i) const {
    const u32 s = head_ + i;
    return s < depth_ ? s : s - depth_;
  }
  const Entry& at(u32 i) const { return ring_[slot(i)]; }

  u32 depth_;
  std::vector<Entry> ring_;  ///< depth_ slots, allocated once
  u32 head_ = 0;             ///< slot of the oldest entry
  u32 size_ = 0;
};

}  // namespace virec::core
