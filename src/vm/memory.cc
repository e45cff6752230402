#include "src/vm/memory.h"

#include <algorithm>

#include "src/support/check.h"
#include "src/support/hash.h"

namespace polynima::vm {

void Memory::AllowRegion(uint64_t lo, uint64_t hi, bool writable) {
  regions_.push_back({lo & ~(kPageSize - 1),
                      (hi + kPageSize - 1) & ~(kPageSize - 1), writable});
}

void Memory::MarkExecutable(uint64_t lo, uint64_t hi) {
  if (lo < hi) {
    exec_ranges_.push_back({lo, hi});
  }
}

bool Memory::InExecutableRange(uint64_t addr, int size) const {
  if (size <= 0) {
    return false;
  }
  // Inclusive last byte, saturated: `addr + size` wraps for accesses at the
  // top of the address space, which would place `end` below `lo` and skip
  // the SMC deopt check entirely.
  uint64_t last = addr + static_cast<uint64_t>(size) - 1;
  if (last < addr) {
    last = UINT64_MAX;
  }
  for (const auto& [lo, hi] : exec_ranges_) {
    if (addr < hi && last >= lo) {
      return true;
    }
  }
  return false;
}

void Memory::MapSegment(uint64_t addr, const std::vector<uint8_t>& bytes,
                        bool writable) {
  AllowRegion(addr, addr + bytes.size(), /*writable=*/true);
  WriteBytes(addr, bytes.data(), bytes.size());
  if (!writable) {
    // Freeze the covered pages after initialization. Marking the region
    // frozen (not just non-writable) makes it win in PageFor over any
    // overlapping writable AllowRegion, so pages inside the frozen segment
    // that are first touched *after* this point still come up read-only.
    regions_.back().writable = false;
    regions_.back().frozen = true;
    for (uint64_t page = regions_.back().lo; page < regions_.back().hi;
         page += kPageSize) {
      auto it = pages_.find(page);
      if (it != pages_.end()) {
        it->second->writable = false;
      }
    }
  }
}

Memory::Page* Memory::PageFor(uint64_t addr, bool for_write) {
  uint64_t page_addr = addr & ~(kPageSize - 1);
  auto it = pages_.find(page_addr);
  if (it == pages_.end()) {
    // Lazily create if inside an allowed region. Frozen regions win: a page
    // inside a frozen .text segment stays read-only even when an overlapping
    // writable region also covers it.
    bool writable = false;
    bool allowed = false;
    bool frozen = false;
    for (const Region& r : regions_) {
      if (page_addr >= r.lo && page_addr < r.hi) {
        allowed = true;
        writable = writable || r.writable;
        frozen = frozen || r.frozen;
      }
    }
    if (frozen) {
      writable = false;
    }
    if (!allowed) {
      Fault(addr);
      return nullptr;
    }
    auto page = std::make_unique<Page>();
    page->writable = writable;
    page->allowed = true;
    it = pages_.emplace(page_addr, std::move(page)).first;
  }
  if (for_write && !it->second->writable) {
    Fault(addr);
    return nullptr;
  }
  return it->second.get();
}

uint64_t Memory::Read(uint64_t addr, int size) {
  uint64_t page_addr = addr & ~(kPageSize - 1);
  uint64_t offset = addr - page_addr;
  if (offset + static_cast<uint64_t>(size) <= kPageSize) {
    Page* page = PageFor(addr, /*for_write=*/false);
    if (page == nullptr) {
      return 0;
    }
    uint64_t v = 0;
    std::memcpy(&v, page->data.data() + offset, static_cast<size_t>(size));
    return v;
  }
  // Cross-page: byte-wise.
  uint64_t v = 0;
  for (int i = 0; i < size; ++i) {
    v |= Read(addr + static_cast<uint64_t>(i), 1) << (8 * i);
  }
  return v;
}

void Memory::Write(uint64_t addr, int size, uint64_t value) {
  uint64_t page_addr = addr & ~(kPageSize - 1);
  uint64_t offset = addr - page_addr;
  if (offset + static_cast<uint64_t>(size) <= kPageSize) {
    Page* page = PageFor(addr, /*for_write=*/true);
    if (page == nullptr) {
      return;
    }
    std::memcpy(page->data.data() + offset, &value, static_cast<size_t>(size));
    return;
  }
  for (int i = 0; i < size; ++i) {
    Write(addr + static_cast<uint64_t>(i), 1, (value >> (8 * i)) & 0xff);
  }
}

void Memory::ReadBytes(uint64_t addr, void* dst, size_t n) {
  uint8_t* out = static_cast<uint8_t*>(dst);
  while (n > 0) {
    uint64_t page_addr = addr & ~(kPageSize - 1);
    uint64_t offset = addr - page_addr;
    size_t chunk = std::min<size_t>(n, kPageSize - offset);
    Page* page = PageFor(addr, /*for_write=*/false);
    if (page == nullptr) {
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, page->data.data() + offset, chunk);
    out += chunk;
    addr += chunk;
    n -= chunk;
  }
}

void Memory::WriteBytes(uint64_t addr, const void* src, size_t n) {
  const uint8_t* in = static_cast<const uint8_t*>(src);
  while (n > 0) {
    uint64_t page_addr = addr & ~(kPageSize - 1);
    uint64_t offset = addr - page_addr;
    size_t chunk = std::min<size_t>(n, kPageSize - offset);
    Page* page = PageFor(addr, /*for_write=*/true);
    if (page == nullptr) {
      return;
    }
    std::memcpy(page->data.data() + offset, in, chunk);
    in += chunk;
    addr += chunk;
    n -= chunk;
  }
}

uint64_t Memory::Digest() const {
  std::vector<uint64_t> addrs;
  addrs.reserve(pages_.size());
  for (const auto& [addr, page] : pages_) {
    addrs.push_back(addr);
  }
  std::sort(addrs.begin(), addrs.end());
  uint64_t h = kFnvOffsetBasis;
  for (uint64_t addr : addrs) {
    const Page& page = *pages_.at(addr);
    FnvMixU64(h, addr);
    FnvMixBytes(h, page.data.data(), page.data.size());
  }
  return h;
}

std::string Memory::ReadCString(uint64_t addr) {
  std::string out;
  for (size_t i = 0; i < (1u << 20); ++i) {
    uint8_t c = static_cast<uint8_t>(Read(addr + i, 1));
    if (c == 0 || faulted_) {
      break;
    }
    out.push_back(static_cast<char>(c));
  }
  return out;
}

}  // namespace polynima::vm
