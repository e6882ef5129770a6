#include "index/huffman.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace ppq::index {
namespace {

struct TreeNode {
  uint64_t weight;
  int order;  // tie-breaker for determinism
  uint32_t symbol = 0;
  int left = -1;
  int right = -1;
};

}  // namespace

HuffmanTable HuffmanTable::Build(
    const std::unordered_map<uint32_t, uint64_t>& frequencies) {
  HuffmanTable table;
  if (frequencies.empty()) return table;

  // Deterministic order: sort symbols.
  std::vector<std::pair<uint32_t, uint64_t>> symbols(frequencies.begin(),
                                                     frequencies.end());
  std::sort(symbols.begin(), symbols.end());

  if (symbols.size() == 1) {
    table.lengths_[symbols[0].first] = 1;
    table.AssignCanonicalCodes();
    return table;
  }

  // Standard Huffman tree construction over (weight, order) pairs.
  std::vector<TreeNode> nodes;
  nodes.reserve(symbols.size() * 2);
  using QueueEntry = std::pair<std::pair<uint64_t, int>, int>;  // ((w, ord), node)
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> heap;
  int order = 0;
  for (const auto& [symbol, weight] : symbols) {
    nodes.push_back({weight, order, symbol, -1, -1});
    heap.push({{weight, order}, static_cast<int>(nodes.size() - 1)});
    ++order;
  }
  while (heap.size() > 1) {
    const auto [wa, a] = heap.top();
    heap.pop();
    const auto [wb, b] = heap.top();
    heap.pop();
    nodes.push_back({wa.first + wb.first, order, 0, a, b});
    heap.push({{wa.first + wb.first, order}, static_cast<int>(nodes.size() - 1)});
    ++order;
  }

  // Depth-first traversal assigns code lengths.
  struct StackEntry {
    int node;
    int depth;
  };
  std::vector<StackEntry> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const auto [ni, depth] = stack.back();
    stack.pop_back();
    const TreeNode& node = nodes[static_cast<size_t>(ni)];
    if (node.left < 0) {
      table.lengths_[node.symbol] = std::max(depth, 1);
    } else {
      stack.push_back({node.left, depth + 1});
      stack.push_back({node.right, depth + 1});
    }
  }
  table.AssignCanonicalCodes();
  return table;
}

void HuffmanTable::AssignCanonicalCodes() {
  // Canonical assignment: sort by (length, symbol), then count upward.
  std::vector<std::pair<int, uint32_t>> order;
  order.reserve(lengths_.size());
  for (const auto& [symbol, length] : lengths_) order.push_back({length, symbol});
  std::sort(order.begin(), order.end());

  uint32_t code = 0;
  int previous_length = order.empty() ? 0 : order.front().first;
  for (const auto& [length, symbol] : order) {
    code <<= (length - previous_length);
    previous_length = length;
    codes_[symbol] = code;
    // Codes live in a uint32: longer ones (LoadFrom rejects them) are
    // left out of the decode ranges.
    if (length <= 32 && entries_of_length_[length]++ == 0) {
      first_code_[length] = code;
      first_entry_[length] = static_cast<uint32_t>(decode_entries_.size());
      max_length_ = length;
    }
    decode_entries_.push_back({symbol, code, length});
    ++code;
  }
}

void HuffmanTable::SaveTo(ByteWriter* out) const {
  // lengths_ is unordered; sort by symbol so equal tables serialize to
  // equal bytes (golden-file determinism).
  std::vector<std::pair<uint32_t, int>> sorted(lengths_.begin(),
                                               lengths_.end());
  std::sort(sorted.begin(), sorted.end());
  out->WriteU32(static_cast<uint32_t>(sorted.size()));
  for (const auto& [symbol, length] : sorted) {
    out->WriteU32(symbol);
    out->WriteU8(static_cast<uint8_t>(length));
  }
}

Result<HuffmanTable> HuffmanTable::LoadFrom(ByteReader* in) {
  auto count = in->ReadU32();
  if (!count.ok()) return count.status();
  if (*count > in->Remaining() / 5) {
    return Status::Invalid("HuffmanTable: entry count exceeds payload");
  }
  HuffmanTable table;
  table.lengths_.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto symbol = in->ReadU32();
    if (!symbol.ok()) return symbol.status();
    auto length = in->ReadU8();
    if (!length.ok()) return length.status();
    // Canonical codes live in a uint32; lengths outside [1, 32] cannot
    // have been produced by Build and would shift out of range.
    if (*length < 1 || *length > 32) {
      return Status::Invalid("HuffmanTable: code length out of range");
    }
    if (!table.lengths_.emplace(*symbol, *length).second) {
      return Status::Invalid("HuffmanTable: duplicate symbol");
    }
  }
  table.AssignCanonicalCodes();
  return table;
}

void WritePackedList(const PackedListHeader& header, const uint8_t* bytes,
                     ByteWriter* out) {
  out->WriteU32(header.count);
  out->WriteU32(header.bit_count);
  out->WriteBytes(bytes, static_cast<size_t>((uint64_t{header.bit_count} + 7) / 8));
}

Result<PackedListHeader> ReadPackedList(ByteReader* in,
                                        std::vector<uint8_t>* bytes) {
  PackedListHeader header;
  auto count = in->ReadU32();
  if (!count.ok()) return count.status();
  auto bit_count = in->ReadU32();
  if (!bit_count.ok()) return bit_count.status();
  // Every encoded id consumes at least one bit, so a count beyond
  // bit_count is forged (and would make the decoder over-reserve).
  if (*count > *bit_count) {
    return Status::Invalid("packed id list: count exceeds bit count");
  }
  // 64-bit on purpose: (bit_count + 7) wraps to 0 in uint32 for forged
  // values near UINT32_MAX, which would slip past the payload bound below
  // and leave a bit_count with no bytes behind it (OOB reads at decode).
  const size_t byte_len =
      static_cast<size_t>((uint64_t{*bit_count} + 7) / 8);
  if (byte_len > in->Remaining()) {
    return Status::Invalid("packed id list: payload exceeds buffer");
  }
  const size_t start = bytes->size();
  bytes->resize(start + byte_len);
  PPQ_RETURN_NOT_OK(in->ReadBytes(bytes->data() + start, byte_len));
  header.count = *count;
  header.bit_count = *bit_count;
  return header;
}

Status HuffmanTable::Encode(uint32_t symbol, BitWriter* writer) const {
  const auto it = codes_.find(symbol);
  if (it == codes_.end()) {
    return Status::Invalid("HuffmanTable: symbol not in alphabet");
  }
  writer->WriteBits(it->second, lengths_.at(symbol));
  return Status::OK();
}

Result<uint32_t> HuffmanTable::Decode(BitReader* reader) const {
  // Read one bit per code length; a code of length L is valid when it
  // falls in that length's consecutive canonical range (unsigned
  // wrap-around makes codes below the range fail the same test).
  uint32_t code = 0;
  for (int length = 1; length <= max_length_; ++length) {
    auto bit = reader->ReadBit();
    if (!bit.ok()) return bit.status();
    code = (code << 1) | (*bit ? 1u : 0u);
    const uint32_t offset = code - first_code_[length];
    if (offset < entries_of_length_[length]) {
      return decode_entries_[first_entry_[length] + offset].symbol;
    }
  }
  return Status::Invalid("HuffmanTable: invalid code word");
}

Result<CompressedIdList> CompressIds(const int32_t* sorted_ids, size_t n,
                                     const HuffmanTable& table) {
  BitWriter writer;
  int32_t previous = 0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t id = sorted_ids[i];
    if (id < previous) {
      return Status::Invalid("CompressIds: ids must be sorted ascending");
    }
    PPQ_RETURN_NOT_OK(table.Encode(static_cast<uint32_t>(id - previous), &writer));
    previous = id;
  }
  CompressedIdList list;
  list.bytes = writer.buffer();
  list.bit_count = static_cast<uint32_t>(writer.BitCount());
  list.count = static_cast<uint32_t>(n);
  return list;
}

Status AppendDecompressedIds(const uint8_t* bytes, uint32_t bit_count,
                             uint32_t count, const HuffmanTable& table,
                             std::vector<int32_t>* out) {
  BitReader reader(bytes, bit_count);
  const size_t start = out->size();
  // Every id takes at least one bit: a count beyond bit_count is forged,
  // and must not size the reservation.
  out->reserve(start + std::min(count, bit_count));
  // Accumulate in 64-bit and bound-check: CompressIds only ever emits
  // deltas in [0, INT32_MAX], so an id walking past int32 range means a
  // forged table/list — adding it in int32 would be signed-overflow UB.
  int64_t previous = 0;
  for (uint32_t i = 0; i < count; ++i) {
    auto delta = table.Decode(&reader);
    if (!delta.ok()) {
      out->resize(start);
      return delta.status();
    }
    previous += static_cast<int64_t>(*delta);
    if (previous > std::numeric_limits<int32_t>::max()) {
      out->resize(start);
      return Status::Invalid("DecompressIds: id overflows int32");
    }
    out->push_back(static_cast<int32_t>(previous));
  }
  return Status::OK();
}

Result<std::vector<int32_t>> DecompressIds(const CompressedIdList& list,
                                           const HuffmanTable& table) {
  std::vector<int32_t> ids;
  PPQ_RETURN_NOT_OK(AppendDecompressedIds(list.bytes.data(), list.bit_count,
                                          list.count, table, &ids));
  return ids;
}

void AccumulateDeltaFrequencies(
    const int32_t* sorted_ids, size_t n,
    std::unordered_map<uint32_t, uint64_t>* frequencies) {
  int32_t previous = 0;
  for (size_t i = 0; i < n; ++i) {
    ++(*frequencies)[static_cast<uint32_t>(sorted_ids[i] - previous)];
    previous = sorted_ids[i];
  }
}

}  // namespace ppq::index
