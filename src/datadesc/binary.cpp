/// The four binary codecs — "gras" (NDR), "mpich" (XDR), "omniorb" (CDR) and
/// "pbio" — as one encode walk and one decode walk over a `Layout`. A codec
/// differs from the others only in its frame header and in the layout that
/// header selects (see codec.hpp).
#include <algorithm>

#include "datadesc/codec.hpp"
#include "datadesc/wire.hpp"

namespace sg::datadesc {
namespace {

constexpr int kN = static_cast<int>(CType::kCount_);

/// How one frame lays out its data.
struct Layout {
  const char* codec;  ///< prefix of error messages
  bool big_endian;
  std::uint8_t sizes[kN];   ///< wire width per CType
  std::uint8_t aligns[kN];  ///< alignment per CType (1: none)
  bool string_nul;          ///< CDR: the length counts a trailing NUL
  std::uint8_t string_pad;  ///< XDR pads string bytes to 4
  std::uint8_t ref_width;   ///< width of the null/non-null marker
};

/// NDR and PBIO: the sender's native layout.
Layout native_layout(const char* codec, const ArchDesc& arch) {
  Layout l{codec, arch.big_endian, {}, {}, false, 1, 1};
  std::copy_n(arch.sizes, kN, l.sizes);
  std::copy_n(arch.aligns, kN, l.aligns);
  return l;
}

/// CDR: fixed IDL widths (long is 32-bit), natural alignment, sender order.
Layout cdr_layout(bool big_endian) {
  return {"omniorb", big_endian, {1, 1, 2, 2, 4, 4, 8, 8, 4, 4, 4, 8},
          {1, 1, 2, 2, 4, 4, 8, 8, 4, 4, 4, 8}, true, 1, 1};
}

/// XDR: big-endian 4-byte units; 64-bit types, long included, take 8 so LP64
/// senders never truncate. Every item is a whole number of units, so no
/// alignment is ever needed.
Layout xdr_layout() {
  return {"mpich", true, {4, 4, 4, 4, 4, 4, 8, 8, 8, 8, 4, 8},
          {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, false, 4, 4};
}

void put(WireWriter& w, const DataDesc& d, const Value& v, const Layout& l) {
  switch (d.kind()) {
    case DataDesc::Kind::kScalar: {
      const CType t = d.ctype();
      const int size = l.sizes[static_cast<int>(t)];
      w.align(l.aligns[static_cast<int>(t)]);
      if (ctype_is_float(t)) {
        w.put_bits(float_to_bits(v.as_float(), size == 4), size, l.big_endian);
      } else if (ctype_is_signed(t)) {
        const std::int64_t x = v.as_int();
        check_int_fits(x, size, d.name());
        w.put_bits(static_cast<std::uint64_t>(x), size, l.big_endian);
      } else {
        const std::uint64_t x = v.as_uint();
        check_uint_fits(x, size, d.name());
        w.put_bits(x, size, l.big_endian);
      }
      break;
    }
    case DataDesc::Kind::kString: {
      const std::string& s = v.as_string();
      w.align(4);
      w.put_bits(s.size() + (l.string_nul ? 1 : 0), 4, l.big_endian);
      w.put_bytes(s.data(), s.size());
      if (l.string_nul)
        w.put_u8(0);
      w.align(l.string_pad);
      break;
    }
    case DataDesc::Kind::kStruct: {
      const ValueStruct& fields = v.as_struct();
      check_shape(l.codec, "struct", d, fields.size(), d.fields().size());
      for (size_t i = 0; i < fields.size(); ++i)
        put(w, *d.fields()[i].desc, fields[i].second, l);
      break;
    }
    case DataDesc::Kind::kFixedArray:
      check_shape(l.codec, "fixed array", d, v.as_list().size(), d.array_size());
      for (const Value& e : v.as_list())
        put(w, *d.element(), e, l);
      break;
    case DataDesc::Kind::kDynArray:
      w.align(4);
      w.put_bits(v.as_list().size(), 4, l.big_endian);
      for (const Value& e : v.as_list())
        put(w, *d.element(), e, l);
      break;
    case DataDesc::Kind::kRef:
      w.put_bits(v.is_null() ? 0 : 1, l.ref_width, l.big_endian);
      if (!v.is_null())
        put(w, *d.element(), v, l);
      break;
  }
}

Value get(WireReader& r, const DataDesc& d, const Layout& l, const ArchDesc& receiver) {
  switch (d.kind()) {
    case DataDesc::Kind::kScalar: {
      const CType t = d.ctype();
      const int size = l.sizes[static_cast<int>(t)];
      r.align(l.aligns[static_cast<int>(t)]);
      const std::uint64_t bits = r.get_bits(size, l.big_endian);
      if (ctype_is_float(t))
        return Value(bits_to_float(bits, size == 4));
      // The receiver must be able to represent what it got.
      if (ctype_is_signed(t)) {
        const std::int64_t x = sign_extend(bits, size);
        check_int_fits(x, receiver.size_of(t), d.name() + " (receiver)");
        return Value(x);
      }
      check_uint_fits(bits, receiver.size_of(t), d.name() + " (receiver)");
      return Value(bits);
    }
    case DataDesc::Kind::kString: {
      r.align(4);
      size_t len = r.get_count(4, l.big_endian, l.codec);
      if (l.string_nul) {
        if (len == 0)
          throw xbt::InvalidArgument(std::string(l.codec) + ": zero-length string (missing NUL)");
        --len;
      }
      std::string s(len, '\0');
      r.get_bytes(s.data(), len);
      if (l.string_nul && r.get_u8() != 0)
        throw xbt::InvalidArgument(std::string(l.codec) + ": string terminator at offset " +
                                   std::to_string(r.position() - 1) + " is not NUL");
      r.align(l.string_pad);
      return Value(std::move(s));
    }
    case DataDesc::Kind::kStruct: {
      ValueStruct out;
      out.reserve(d.fields().size());
      for (const auto& f : d.fields())
        out.emplace_back(f.name, get(r, *f.desc, l, receiver));
      return Value(std::move(out));
    }
    case DataDesc::Kind::kFixedArray:
    case DataDesc::Kind::kDynArray: {
      size_t n = d.array_size();
      if (d.kind() == DataDesc::Kind::kDynArray) {
        r.align(4);
        n = r.get_count(4, l.big_endian, l.codec);
      }
      ValueList out;
      out.reserve(n);
      for (size_t i = 0; i < n; ++i)
        out.push_back(get(r, *d.element(), l, receiver));
      return Value(std::move(out));
    }
    case DataDesc::Kind::kRef:
      if (r.get_bits(l.ref_width, l.big_endian) == 0)
        return Value::null();
      return get(r, *d.element(), l, receiver);
  }
  throw xbt::InvalidArgument(std::string(l.codec) + ": corrupt description");
}

// -- PBIO metadata: kind byte, ctype byte, name, children --------------------------

void put_meta(WireWriter& w, const DataDesc& d) {
  w.put_u8(static_cast<std::uint8_t>(d.kind()));
  w.put_u8(static_cast<std::uint8_t>(d.ctype()));
  w.put_bits(d.name().size(), 2, true);
  w.put_bytes(d.name().data(), d.name().size());
  switch (d.kind()) {
    case DataDesc::Kind::kStruct:
      w.put_bits(d.fields().size(), 2, true);
      for (const auto& f : d.fields()) {
        w.put_bits(f.name.size(), 2, true);
        w.put_bytes(f.name.data(), f.name.size());
        put_meta(w, *f.desc);
      }
      break;
    case DataDesc::Kind::kFixedArray:
      w.put_bits(d.array_size(), 4, true);
      put_meta(w, *d.element());
      break;
    case DataDesc::Kind::kDynArray:
    case DataDesc::Kind::kRef:
      put_meta(w, *d.element());
      break;
    default:
      break;
  }
}

/// Parse the incoming metadata and verify it structurally matches what the
/// receiver expects (PBIO's format-compatibility check).
void check_meta(WireReader& r, const DataDesc& d) {
  const auto kind = static_cast<DataDesc::Kind>(r.get_u8());
  const auto ctype = static_cast<CType>(r.get_u8());
  const size_t name_len = r.get_count(2, true, "pbio");
  std::string name(name_len, '\0');
  r.get_bytes(name.data(), name_len);
  if (kind != d.kind())
    throw xbt::InvalidArgument("pbio: format mismatch at '" + d.name() + "'");
  switch (kind) {
    case DataDesc::Kind::kScalar:
      if (ctype != d.ctype())
        throw xbt::InvalidArgument("pbio: scalar type mismatch at '" + d.name() + "'");
      break;
    case DataDesc::Kind::kStruct: {
      const auto n = static_cast<size_t>(r.get_bits(2, true));
      if (n != d.fields().size())
        throw xbt::InvalidArgument("pbio: field count mismatch at '" + d.name() + "'");
      for (const auto& f : d.fields()) {
        const size_t fn_len = r.get_count(2, true, "pbio");
        std::string fn(fn_len, '\0');
        r.get_bytes(fn.data(), fn_len);
        if (fn != f.name)
          throw xbt::InvalidArgument("pbio: field name mismatch: got '" + fn + "', want '" +
                                     f.name + "'");
        check_meta(r, *f.desc);
      }
      break;
    }
    case DataDesc::Kind::kFixedArray: {
      const auto n = static_cast<size_t>(r.get_bits(4, true));
      if (n != d.array_size())
        throw xbt::InvalidArgument("pbio: array size mismatch at '" + d.name() + "'");
      check_meta(r, *d.element());
      break;
    }
    case DataDesc::Kind::kDynArray:
    case DataDesc::Kind::kRef:
      check_meta(r, *d.element());
      break;
    default:
      break;
  }
}

// -- the codecs: a frame header, then one walk under the layout it selects ----------

class BinaryCodec final : public Codec {
public:
  enum class Header { kArchId, kArchIdAndMeta, kByteOrderFlag, kNone };

  BinaryCodec(const char* name, Header header) : name_(name), header_(header) {}

  const char* name() const override { return name_; }

  std::vector<std::uint8_t> encode(const DataDesc& desc, const Value& v,
                                   const ArchDesc& sender) const override {
    WireWriter w;
    put(w, desc, v, write_header(w, desc, sender));
    return w.take();
  }

  Value decode(const DataDesc& desc, const std::vector<std::uint8_t>& buf,
               const ArchDesc& receiver) const override {
    WireReader r(buf);
    return get(r, desc, read_header(r, desc), receiver);
  }

private:
  Layout write_header(WireWriter& w, const DataDesc& desc, const ArchDesc& sender) const {
    switch (header_) {
      case Header::kArchId:
      case Header::kArchIdAndMeta:
        w.put_u8(static_cast<std::uint8_t>(sender.id));
        if (header_ == Header::kArchIdAndMeta)
          put_meta(w, desc);
        return native_layout(name_, sender);
      case Header::kByteOrderFlag:
        w.put_u8(sender.big_endian ? 0 : 1);  // CDR: 1 = little-endian
        return cdr_layout(sender.big_endian);
      case Header::kNone:
        break;
    }
    return xdr_layout();
  }

  Layout read_header(WireReader& r, const DataDesc& desc) const {
    switch (header_) {
      case Header::kArchId:
      case Header::kArchIdAndMeta: {
        const ArchDesc& sender = arch_by_id(r.get_u8());
        if (header_ == Header::kArchIdAndMeta)
          check_meta(r, desc);
        return native_layout(name_, sender);
      }
      case Header::kByteOrderFlag:
        return cdr_layout(r.get_u8() == 0);
      case Header::kNone:
        break;
    }
    return xdr_layout();
  }

  const char* name_;
  Header header_;
};

}  // namespace

const Codec& ndr_codec() {
  static const BinaryCodec codec("gras", BinaryCodec::Header::kArchId);
  return codec;
}

const Codec& xdr_codec() {
  static const BinaryCodec codec("mpich", BinaryCodec::Header::kNone);
  return codec;
}

const Codec& cdr_codec() {
  static const BinaryCodec codec("omniorb", BinaryCodec::Header::kByteOrderFlag);
  return codec;
}

const Codec& pbio_codec() {
  static const BinaryCodec codec("pbio", BinaryCodec::Header::kArchIdAndMeta);
  return codec;
}

const Codec& codec_by_name(const std::string& name) {
  for (const Codec* c : all_codecs())
    if (name == c->name())
      return *c;
  throw xbt::InvalidArgument("no codec named '" + name + "'");
}

std::vector<const Codec*> all_codecs() {
  return {&ndr_codec(), &xdr_codec(), &cdr_codec(), &pbio_codec(), &xml_codec()};
}

}  // namespace sg::datadesc
