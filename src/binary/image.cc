#include "src/binary/image.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "src/support/check.h"
#include "src/support/strings.h"

namespace polynima::binary {

const Segment* Image::SegmentContaining(uint64_t addr) const {
  for (const Segment& seg : segments) {
    if (seg.Contains(addr)) {
      return &seg;
    }
  }
  return nullptr;
}

std::vector<uint8_t> Image::ReadBytes(uint64_t addr, size_t n) const {
  const Segment* seg = SegmentContaining(addr);
  if (seg == nullptr) {
    return {};
  }
  size_t offset = addr - seg->address;
  size_t avail = seg->bytes.size() - offset;
  size_t count = std::min(n, avail);
  return std::vector<uint8_t>(seg->bytes.begin() + static_cast<long>(offset),
                              seg->bytes.begin() + static_cast<long>(offset + count));
}

bool Image::IsCodeAddress(uint64_t addr) const {
  const Segment* seg = SegmentContaining(addr);
  return seg != nullptr && seg->executable;
}

const Symbol* Image::FindSymbol(const std::string& symbol_name) const {
  for (const Symbol& sym : symbols) {
    if (sym.name == symbol_name) {
      return &sym;
    }
  }
  return nullptr;
}

uint64_t Image::ExternalAddress(const std::string& external_name) const {
  for (size_t i = 0; i < externals.size(); ++i) {
    if (externals[i] == external_name) {
      return kExternalBase + 16 * i;
    }
  }
  POLY_UNREACHABLE(StrCat("unknown external: ", external_name));
}

namespace {

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutString(std::vector<uint8_t>& out, const std::string& s) {
  PutU64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& data) : data_(data) {}

  Expected<uint64_t> U64() {
    if (pos_ + 8 > data_.size()) {
      return Status::OutOfRange("truncated image file");
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  Expected<std::string> Str() {
    POLY_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (pos_ + n > data_.size()) {
      return Status::OutOfRange("truncated image file");
    }
    std::string s(data_.begin() + static_cast<long>(pos_),
                  data_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return s;
  }

  Expected<std::vector<uint8_t>> Bytes() {
    POLY_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (pos_ + n > data_.size()) {
      return Status::OutOfRange("truncated image file");
    }
    std::vector<uint8_t> b(data_.begin() + static_cast<long>(pos_),
                           data_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return b;
  }

 private:
  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
};

constexpr uint64_t kMagic = 0x42594c50;  // "PLYB"

}  // namespace

std::vector<uint8_t> Image::Serialize() const {
  std::vector<uint8_t> out;
  PutU64(out, kMagic);
  PutString(out, name);
  PutU64(out, entry_point);
  PutU64(out, segments.size());
  for (const Segment& seg : segments) {
    PutString(out, seg.name);
    PutU64(out, seg.address);
    // Flag word: 0 = writable data, 1 = executable, 2 = read-only data.
    // Older readers treat 2 as "not executable", which maps the segment
    // writable — degraded but loadable.
    PutU64(out, seg.executable ? 1 : (seg.read_only ? 2 : 0));
    PutU64(out, seg.bytes.size());
    out.insert(out.end(), seg.bytes.begin(), seg.bytes.end());
  }
  PutU64(out, symbols.size());
  for (const Symbol& sym : symbols) {
    PutString(out, sym.name);
    PutU64(out, sym.address);
    PutU64(out, sym.size);
  }
  PutU64(out, externals.size());
  for (const std::string& e : externals) {
    PutString(out, e);
  }
  return out;
}

Expected<Image> Image::Deserialize(const std::vector<uint8_t>& data) {
  Reader r(data);
  POLY_ASSIGN_OR_RETURN(uint64_t magic, r.U64());
  if (magic != kMagic) {
    return Status::InvalidArgument("not a PLYB image");
  }
  Image img;
  POLY_ASSIGN_OR_RETURN(img.name, r.Str());
  POLY_ASSIGN_OR_RETURN(img.entry_point, r.U64());
  POLY_ASSIGN_OR_RETURN(uint64_t nseg, r.U64());
  for (uint64_t i = 0; i < nseg; ++i) {
    Segment seg;
    POLY_ASSIGN_OR_RETURN(seg.name, r.Str());
    POLY_ASSIGN_OR_RETURN(seg.address, r.U64());
    POLY_ASSIGN_OR_RETURN(uint64_t flags, r.U64());
    if (flags > 2) {
      return Status::InvalidArgument(
          StrCat("segment ", seg.name, ": unknown flag value ", flags));
    }
    seg.executable = flags == 1;
    seg.read_only = flags == 2;
    POLY_ASSIGN_OR_RETURN(seg.bytes, r.Bytes());
    if (seg.bytes.size() > UINT64_MAX - seg.address) {
      return Status::InvalidArgument(
          StrCat("segment ", seg.name, " wraps the address space"));
    }
    img.segments.push_back(std::move(seg));
  }
  std::vector<const Segment*> by_address;
  for (const Segment& seg : img.segments) {
    if (!seg.bytes.empty()) {
      by_address.push_back(&seg);
    }
  }
  std::sort(by_address.begin(), by_address.end(),
            [](const Segment* a, const Segment* b) {
              return a->address < b->address;
            });
  for (size_t i = 1; i < by_address.size(); ++i) {
    const Segment& prev = *by_address[i - 1];
    const Segment& seg = *by_address[i];
    if (seg.address < prev.end()) {
      return Status::InvalidArgument(
          StrCat("segments ", prev.name, " and ", seg.name, " overlap"));
    }
  }
  const Segment* entry_seg = img.SegmentContaining(img.entry_point);
  if (entry_seg == nullptr || !entry_seg->executable) {
    return Status::InvalidArgument(
        StrCat("entry point ", HexString(img.entry_point),
               " is outside every executable segment"));
  }
  POLY_ASSIGN_OR_RETURN(uint64_t nsym, r.U64());
  for (uint64_t i = 0; i < nsym; ++i) {
    Symbol sym;
    POLY_ASSIGN_OR_RETURN(sym.name, r.Str());
    POLY_ASSIGN_OR_RETURN(sym.address, r.U64());
    POLY_ASSIGN_OR_RETURN(sym.size, r.U64());
    img.symbols.push_back(std::move(sym));
  }
  POLY_ASSIGN_OR_RETURN(uint64_t next, r.U64());
  for (uint64_t i = 0; i < next; ++i) {
    POLY_ASSIGN_OR_RETURN(std::string e, r.Str());
    img.externals.push_back(std::move(e));
  }
  return img;
}

Status Image::WriteTo(const std::string& path) const {
  std::vector<uint8_t> data = Serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<long>(data.size()));
  if (!out) {
    return Status::Internal("write failed: " + path);
  }
  return Status::Ok();
}

Expected<Image> Image::ReadFrom(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open: " + path);
  }
  std::vector<uint8_t> data((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  return Deserialize(data);
}

}  // namespace polynima::binary
