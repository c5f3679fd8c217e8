#ifndef INSIGHTNOTES_INDEX_KEY_CODEC_H_
#define INSIGHTNOTES_INDEX_KEY_CODEC_H_

#include <string>
#include <string_view>

#include "types/value.h"

namespace insight {

/// Encodes a scalar Value into a byte string whose lexicographic order
/// matches Value::Compare within one type (and across int64/double).
/// Layout: 1 type-class byte, then an order-preserving payload:
///   NULL   -> 0x00
///   number -> 0x01 + 8-byte big-endian IEEE-754 image with the sign bit
///             flipped (negatives additionally bit-inverted)
///   bool   -> 0x02 + {0, 1}
///   string -> 0x03 + raw bytes
/// Numbers encode through double, so int64 and double that compare equal
/// produce the same key — matching the engine's cross-type comparisons.
std::string EncodeIndexKey(const Value& v);

/// Smallest/largest possible keys for a type class, used as open-range
/// endpoints ("label:000" / "label:999" analogues for data columns).
std::string MinNumericKey();
std::string MaxNumericKey();
std::string MinStringKey();
std::string MaxStringKey();

/// True when `key` lies within the range (each bound inclusive or strict).
inline bool KeyInRange(std::string_view key, std::string_view lower,
                       bool lower_inclusive, std::string_view upper,
                       bool upper_inclusive) {
  if (key < lower || (key == lower && !lower_inclusive)) return false;
  return key < upper || (key == upper && upper_inclusive);
}

}  // namespace insight

#endif  // INSIGHTNOTES_INDEX_KEY_CODEC_H_
