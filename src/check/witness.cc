#include "src/check/witness.h"

#include "src/binary/image.h"
#include "src/support/hash.h"

namespace polynima::check {

uint64_t ElisionCert::ComputeChecksum() const {
  uint64_t h = kFnvOffsetBasis;
  FnvMixU64(h, binary_key);
  FnvMixU64(h, static_cast<uint64_t>(loops_analyzed));
  FnvMixU64(h, static_cast<uint64_t>(spinning_loops));
  FnvMixU64(h, static_cast<uint64_t>(uncovered_loops));
  for (const std::string& s : loop_summaries) {
    FnvMixU64(h, s.size());
    FnvMixBytes(h, s.data(), s.size());
  }
  return h;
}

uint64_t StaticCert::ComputeChecksum() const {
  uint64_t h = kFnvOffsetBasis;
  FnvMixU64(h, binary_key);
  FnvMixU64(h, static_cast<uint64_t>(functions_analyzed));
  FnvMixU64(h, static_cast<uint64_t>(alloc_sites));
  FnvMixU64(h, static_cast<uint64_t>(escaped_sites));
  FnvMixU64(h, static_cast<uint64_t>(heap_witnesses));
  FnvMixU64(h, static_cast<uint64_t>(shared_accesses));
  FnvMixU64(h, static_cast<uint64_t>(race_pairs));
  for (const std::string& s : site_summaries) {
    FnvMixU64(h, s.size());
    FnvMixBytes(h, s.data(), s.size());
  }
  return h;
}

uint64_t CfgCert::ComputeChecksum() const {
  uint64_t h = kFnvOffsetBasis;
  FnvMixU64(h, binary_key);
  FnvMixU64(h, static_cast<uint64_t>(landing_pads));
  FnvMixU64(h, static_cast<uint64_t>(sites_proven));
  FnvMixU64(h, static_cast<uint64_t>(sites_open));
  for (const Site& site : sites) {
    FnvMixU64(h, site.transfer_address);
    FnvMixU64(h, site.is_call ? 1 : 0);
    FnvMixU64(h, site.targets.size());
    for (uint64_t t : site.targets) {
      FnvMixU64(h, t);
    }
  }
  for (uint64_t e : covered_functions) {
    FnvMixU64(h, e);
  }
  for (const std::string& s : site_summaries) {
    FnvMixU64(h, s.size());
    FnvMixBytes(h, s.data(), s.size());
  }
  return h;
}

const CfgCert::Site* CfgCert::FindSite(uint64_t transfer_address) const {
  for (const Site& site : sites) {
    if (site.transfer_address == transfer_address) {
      return &site;
    }
  }
  return nullptr;
}

bool VerifyCfgCert(const CfgCert& cert, const binary::Image& image) {
  return cert.Sealed() && cert.binary_key == BinaryKey(image);
}

uint64_t BinaryKey(const binary::Image& image) {
  uint64_t h = kFnvOffsetBasis;
  FnvMixU64(h, image.entry_point);
  for (const binary::Segment& seg : image.segments) {
    FnvMixU64(h, seg.address);
    FnvMixU64(h, seg.bytes.size());
    FnvMixBytes(h, seg.bytes.data(), seg.bytes.size());
  }
  return h;
}

}  // namespace polynima::check
