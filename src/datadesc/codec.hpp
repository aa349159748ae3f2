/// \file codec.hpp
/// Wire codecs, one per system compared in the paper's GRAS tables. The four
/// binary ones share one walk over the description (binary.cpp); they vary
/// only in wire widths, alignment, byte order, string framing and the width
/// of the null/non-null reference marker, and in what their frame header
/// carries:
///
///  * "gras"    — NDR, receiver makes right. Header: the sender's
///                architecture id. Data in the sender's native widths,
///                alignment and byte order; strings and counts are 4-byte
///                words aligned on 4; 1-byte reference marker. The receiver
///                converts only what differs.
///  * "pbio"    — self-describing binary. Header: the sender's architecture
///                id, then metadata describing the format (kinds, scalar
///                types, names), which the receiver checks against its own
///                description. Data as in NDR.
///  * "omniorb" — CORBA CDR. Header: a byte-order flag (1 = little-endian).
///                Fixed IDL widths (long is 4 bytes), natural alignment, the
///                sender's byte order; a string's length counts its trailing
///                NUL; 1-byte reference marker.
///  * "mpich"   — XDR canonical form. No header. Big-endian 4-byte units
///                (8 for 64-bit types and long), no alignment, strings padded
///                to 4, 4-byte reference marker; both sides always convert.
///  * "xml"     — tagged text with its own walker (xml.cpp); maximal
///                portability, maximal cost.
///
/// Every decoder checks what it receives against the receiver's widths and
/// the bytes left, and throws xbt::InvalidArgument on anything malformed.
#pragma once

#include <cstdint>
#include <vector>

#include "datadesc/datadesc.hpp"

namespace sg::datadesc {

class Codec {
public:
  virtual ~Codec() = default;
  virtual const char* name() const = 0;

  /// Serialize `v`, which must match `desc`, as emitted by a host of
  /// architecture `sender`. Throws xbt::InvalidArgument, naming the codec
  /// and the node, on a struct or fixed array with the wrong entry count.
  virtual std::vector<std::uint8_t> encode(const DataDesc& desc, const Value& v,
                                           const ArchDesc& sender) const = 0;

  /// Deserialize on a host of architecture `receiver`. Throws
  /// xbt::InvalidArgument on malformed input or unrepresentable values
  /// (e.g. a 64-bit long received by a 32-bit architecture).
  virtual Value decode(const DataDesc& desc, const std::vector<std::uint8_t>& buf,
                       const ArchDesc& receiver) const = 0;
};

const Codec& ndr_codec();    ///< "gras"
const Codec& xdr_codec();    ///< "mpich"
const Codec& cdr_codec();    ///< "omniorb"
const Codec& pbio_codec();   ///< "pbio"
const Codec& xml_codec();    ///< "xml"

const Codec& codec_by_name(const std::string& name);
std::vector<const Codec*> all_codecs();

}  // namespace sg::datadesc
