#include "core/rollback_queue.hpp"

#include <stdexcept>

namespace virec::core {

RollbackQueue::RollbackQueue(u32 depth) : depth_(depth), ring_(depth) {}

void RollbackQueue::push(const Entry& entry) {
  if (size_ >= depth_) {
    throw std::logic_error("RollbackQueue overflow: backend deeper than queue");
  }
  ring_[slot(size_)] = entry;
  ++size_;
}

void RollbackQueue::pop_oldest() {
  if (size_ == 0) {
    throw std::logic_error("RollbackQueue underflow on commit");
  }
  head_ = slot(1);
  --size_;
}

void RollbackQueue::flush_to(TagStore& tags) {
  for (u32 i = 0; i < size_; ++i) {
    const Entry& entry = at(i);
    for (u32 k = 0; k < entry.count; ++k) {
      tags.reset_c_bit(entry.phys[k], entry.tid[k], entry.arch[k]);
    }
  }
  clear();
}

}  // namespace virec::core
