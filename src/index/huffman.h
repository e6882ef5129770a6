#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bitstream.h"
#include "common/serial.h"
#include "common/status.h"

/// \file huffman.h
/// Canonical Huffman coding over 32-bit symbols, used (together with delta
/// encoding) to compress the per-cell trajectory ID lists of the grid index
/// (Section 5.1, following [19, 22, 42]).

namespace ppq::index {

/// \brief A canonical Huffman code table built from symbol frequencies.
///
/// Canonical form keeps the stored table small: only (symbol, code length)
/// pairs are needed to reconstruct the codes.
class HuffmanTable {
 public:
  HuffmanTable() = default;

  /// Build a table for the given frequency map. Empty input yields an
  /// empty table; a single-symbol alphabet gets a 1-bit code.
  static HuffmanTable Build(
      const std::unordered_map<uint32_t, uint64_t>& frequencies);

  bool empty() const { return lengths_.empty(); }
  size_t AlphabetSize() const { return lengths_.size(); }

  /// Append the code for \p symbol. Returns Invalid for unknown symbols.
  Status Encode(uint32_t symbol, BitWriter* writer) const;

  /// Decode one symbol from the reader.
  Result<uint32_t> Decode(BitReader* reader) const;

  /// Code length in bits for \p symbol (0 when absent).
  int CodeLength(uint32_t symbol) const {
    const auto it = lengths_.find(symbol);
    return it == lengths_.end() ? 0 : it->second;
  }

  /// Bytes charged for persisting the table: 4 bytes symbol + 1 byte
  /// length per alphabet entry.
  size_t SizeBytes() const { return lengths_.size() * 5; }

  /// Append the canonical form — sorted (symbol, code length) pairs — to
  /// \p out. Output is byte-deterministic for equal tables.
  void SaveTo(ByteWriter* out) const;

  /// Inverse of SaveTo. Codes are reassigned canonically from the loaded
  /// lengths; malformed input (absurd lengths, counts beyond the buffer)
  /// yields a Status error, never UB.
  static Result<HuffmanTable> LoadFrom(ByteReader* in);

 private:
  struct DecodeEntry {
    uint32_t symbol;
    uint32_t code;
    int length;
  };

  void AssignCanonicalCodes();

  /// symbol -> code length.
  std::unordered_map<uint32_t, int> lengths_;
  /// symbol -> canonical code (MSB-aligned within `length` bits).
  std::unordered_map<uint32_t, uint32_t> codes_;
  /// Sorted by (length, code) for decoding.
  std::vector<DecodeEntry> decode_entries_;
  /// Per code length L (index L, 0 unused): the first canonical code of
  /// that length, where its entries start in decode_entries_, and how
  /// many there are. Canonical codes of one length are consecutive, so a
  /// code read in L bits decodes with one subtraction.
  std::array<uint32_t, 33> first_code_{};
  std::array<uint32_t, 33> first_entry_{};
  std::array<uint32_t, 33> entries_of_length_{};
  int max_length_ = 0;
};

/// The header of a packed id list: how many ids it holds and how many
/// bits they take. Its bytes are (bit_count + 7) / 8 long.
struct PackedListHeader {
  uint32_t count = 0;
  uint32_t bit_count = 0;
};

/// Append a packed list as stored: u32 count, u32 bit_count, then its
/// (bit_count + 7) / 8 bytes, which \p bytes must hold.
void WritePackedList(const PackedListHeader& header, const uint8_t* bytes,
                     ByteWriter* out);

/// Inverse of WritePackedList, the one parser of stored packed lists:
/// validates the header and appends the list's bytes to \p bytes, which
/// may already hold other lists (a grid's arena). A count beyond
/// bit_count (every id takes at least one bit) or a byte length beyond
/// the input is rejected before anything is allocated.
Result<PackedListHeader> ReadPackedList(ByteReader* in,
                                        std::vector<uint8_t>* bytes);

/// \brief Delta + Huffman compressed representation of a sorted ID list.
struct CompressedIdList {
  std::vector<uint8_t> bytes;
  uint32_t bit_count = 0;
  uint32_t count = 0;

  size_t SizeBytes() const { return bytes.size() + sizeof(bit_count) + sizeof(count); }
};

/// Delta-encode \p sorted_ids (ascending; the first entry is stored as a
/// delta from zero) and Huffman-code the deltas with \p table.
Result<CompressedIdList> CompressIds(const int32_t* sorted_ids, size_t n,
                                     const HuffmanTable& table);
inline Result<CompressedIdList> CompressIds(
    const std::vector<int32_t>& sorted_ids, const HuffmanTable& table) {
  return CompressIds(sorted_ids.data(), sorted_ids.size(), table);
}

/// Inverse of CompressIds over a packed list held elsewhere (\p bytes
/// must hold (bit_count + 7) / 8 bytes): appends the \p count ids to
/// \p out. On a decode error \p out is left as it was.
Status AppendDecompressedIds(const uint8_t* bytes, uint32_t bit_count,
                             uint32_t count, const HuffmanTable& table,
                             std::vector<int32_t>* out);

/// Inverse of CompressIds.
Result<std::vector<int32_t>> DecompressIds(const CompressedIdList& list,
                                           const HuffmanTable& table);

/// Accumulate the delta frequencies of \p sorted_ids into \p frequencies,
/// for building a shared table over many lists.
void AccumulateDeltaFrequencies(
    const int32_t* sorted_ids, size_t n,
    std::unordered_map<uint32_t, uint64_t>* frequencies);
inline void AccumulateDeltaFrequencies(
    const std::vector<int32_t>& sorted_ids,
    std::unordered_map<uint32_t, uint64_t>* frequencies) {
  AccumulateDeltaFrequencies(sorted_ids.data(), sorted_ids.size(),
                             frequencies);
}

}  // namespace ppq::index
