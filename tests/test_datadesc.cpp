/// Tests for cross-architecture data description & the five wire codecs.
/// The core guarantee: any described value round-trips bit-exactly through
/// any codec between any pair of architectures (when representable on the
/// receiver).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "datadesc/codec.hpp"
#include "datadesc/pastry.hpp"
#include "datadesc/wire.hpp"
#include "xbt/exception.hpp"
#include "xbt/random.hpp"

namespace {

using namespace sg::datadesc;

// -- architecture table -----------------------------------------------------------

TEST(Arch, TableSanity) {
  EXPECT_GE(arch_table().size(), 6u);
  EXPECT_EQ(arch_by_name("x86").big_endian, false);
  EXPECT_EQ(arch_by_name("sparc").big_endian, true);
  EXPECT_EQ(arch_by_name("ppc").big_endian, true);
  EXPECT_EQ(arch_by_name("x86").size_of(CType::kLong), 4);
  EXPECT_EQ(arch_by_name("amd64").size_of(CType::kLong), 8);
  // classic ia32 ABI: 8-byte scalars aligned on 4
  EXPECT_EQ(arch_by_name("x86").align_of(CType::kDouble), 4);
  EXPECT_EQ(arch_by_name("sparc").align_of(CType::kDouble), 8);
  EXPECT_THROW(arch_by_name("vax"), sg::xbt::InvalidArgument);
  EXPECT_THROW(arch_by_id(99), sg::xbt::InvalidArgument);
}

TEST(Arch, StableIds) {
  // Wire compatibility depends on these ids never changing.
  EXPECT_EQ(arch_by_name("x86").id, 0);
  EXPECT_EQ(arch_by_name("sparc").id, 1);
  EXPECT_EQ(arch_by_name("ppc").id, 2);
  EXPECT_EQ(arch_by_name("amd64").id, 3);
}

// -- value model ------------------------------------------------------------------

TEST(Value, AccessorsAndEquality) {
  Value v(int64_t{-5});
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), -5);
  EXPECT_THROW(v.as_string(), sg::xbt::InvalidArgument);

  Value s(ValueStruct{{"a", Value(1)}, {"b", Value("x")}});
  EXPECT_EQ(s.field("b").as_string(), "x");
  EXPECT_THROW(s.field("zz"), sg::xbt::InvalidArgument);
  EXPECT_EQ(s, Value(ValueStruct{{"a", Value(1)}, {"b", Value("x")}}));
  EXPECT_TRUE(Value::null().is_null());
}

TEST(Value, ToStringRendering) {
  Value v(ValueStruct{{"n", Value(3)}, {"l", Value(ValueList{Value(1.5), Value("s")})}});
  EXPECT_EQ(v.to_string(), "{n: 3, l: [1.5, \"s\"]}");
}

// -- datadesc validation ------------------------------------------------------------

TEST(DataDesc, CheckAcceptsMatching) {
  auto desc = DataDesc::struct_("pair", {{"x", datadesc_by_name("int")},
                                         {"y", datadesc_by_name("double")}});
  EXPECT_NO_THROW(desc->check(Value(ValueStruct{{"x", Value(1)}, {"y", Value(2.0)}})));
}

TEST(DataDesc, CheckRejectsMismatch) {
  auto desc = DataDesc::struct_("pair", {{"x", datadesc_by_name("int")}});
  EXPECT_THROW(desc->check(Value(1)), sg::xbt::InvalidArgument);
  EXPECT_THROW(desc->check(Value(ValueStruct{{"y", Value(1)}})), sg::xbt::InvalidArgument);
  EXPECT_THROW(desc->check(Value(ValueStruct{{"x", Value("nope")}})), sg::xbt::InvalidArgument);
  auto arr = DataDesc::fixed_array(datadesc_by_name("int"), 3);
  EXPECT_THROW(arr->check(Value(ValueList{Value(1)})), sg::xbt::InvalidArgument);
}

TEST(DataDesc, Registry) {
  EXPECT_NO_THROW(datadesc_by_name("uint16"));
  EXPECT_THROW(datadesc_by_name("no-such-type"), sg::xbt::InvalidArgument);
  datadesc_register("my_pair", DataDesc::struct_("my_pair", {{"a", datadesc_by_name("int")}}));
  EXPECT_NO_THROW(datadesc_by_name("my_pair"));
}

// -- round-trip matrix --------------------------------------------------------------

/// A description exercising every DataDesc kind and tricky scalar layouts.
DataDescPtr kitchen_sink_desc() {
  static const DataDescPtr desc = DataDesc::struct_(
      "sink",
      {
          {"i8", DataDesc::scalar(CType::kInt8, "i8")},
          {"u8", DataDesc::scalar(CType::kUInt8, "u8")},
          {"i16", DataDesc::scalar(CType::kInt16, "i16")},
          {"i32", DataDesc::scalar(CType::kInt32, "i32")},
          {"u32", DataDesc::scalar(CType::kUInt32, "u32")},
          {"i64", DataDesc::scalar(CType::kInt64, "i64")},
          {"lng", DataDesc::scalar(CType::kLong, "lng")},
          {"f32", DataDesc::scalar(CType::kFloat, "f32")},
          {"f64", DataDesc::scalar(CType::kDouble, "f64")},
          {"str", DataDesc::string("str")},
          {"arr", DataDesc::fixed_array(DataDesc::scalar(CType::kInt16, "e"), 3, "arr")},
          {"dyn", DataDesc::dyn_array(DataDesc::scalar(CType::kInt32, "d"), "dyn")},
          {"ref", DataDesc::ref(DataDesc::scalar(CType::kInt32, "p"), "ref")},
          {"nested", DataDesc::struct_("inner", {{"a", DataDesc::scalar(CType::kUInt16, "a")},
                                                 {"b", DataDesc::string("b")}})},
      });
  return desc;
}

Value kitchen_sink_value(bool null_ref) {
  return Value(ValueStruct{
      {"i8", Value(int64_t{-100})},
      {"u8", Value(uint64_t{200})},
      {"i16", Value(int64_t{-30000})},
      {"i32", Value(int64_t{-2000000000})},
      {"u32", Value(uint64_t{4000000000u})},
      {"i64", Value(int64_t{-9000000000000000000LL})},
      {"lng", Value(int64_t{-2000000000})},  // fits a 32-bit long
      {"f32", Value(0.5)},                   // exactly representable in binary32
      {"f64", Value(3.141592653589793)},
      {"str", Value(std::string("héllo <&> \"world\""))},
      {"arr", Value(ValueList{Value(1), Value(-2), Value(3)})},
      {"dyn", Value(ValueList{Value(10), Value(20), Value(30), Value(40)})},
      {"ref", null_ref ? Value::null() : Value(int64_t{77})},
      {"nested", Value(ValueStruct{{"a", Value(uint64_t{65535})}, {"b", Value("inner")}})},
  });
}

struct RoundTripCase {
  const char* codec;
  const char* sender;
  const char* receiver;
};

void PrintTo(const RoundTripCase& c, std::ostream* os) {
  *os << c.codec << ":" << c.sender << "->" << c.receiver;
}

class CodecRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(CodecRoundTrip, KitchenSink) {
  const auto p = GetParam();
  const Codec& codec = codec_by_name(p.codec);
  const ArchDesc& snd = arch_by_name(p.sender);
  const ArchDesc& rcv = arch_by_name(p.receiver);
  for (bool null_ref : {false, true}) {
    const Value original = kitchen_sink_value(null_ref);
    const auto wire = codec.encode(*kitchen_sink_desc(), original, snd);
    const Value decoded = codec.decode(*kitchen_sink_desc(), wire, rcv);
    EXPECT_EQ(decoded, original) << "wire size " << wire.size() << "\n got: " << decoded.to_string()
                                 << "\nwant: " << original.to_string();
  }
}

TEST_P(CodecRoundTrip, PastryMessage) {
  const auto p = GetParam();
  const Codec& codec = codec_by_name(p.codec);
  sg::xbt::Rng rng(2006);
  const Value msg = make_pastry_message(rng, 512);
  pastry_message_desc()->check(msg);
  const auto wire = codec.encode(*pastry_message_desc(), msg, arch_by_name(p.sender));
  const Value decoded = codec.decode(*pastry_message_desc(), wire, arch_by_name(p.receiver));
  EXPECT_EQ(decoded, msg);
}

std::vector<RoundTripCase> all_cases() {
  std::vector<RoundTripCase> cases;
  for (const char* codec : {"gras", "mpich", "omniorb", "pbio", "xml"})
    for (const char* snd : {"x86", "sparc", "ppc", "amd64"})
      for (const char* rcv : {"x86", "sparc", "ppc", "amd64"})
        cases.push_back({codec, snd, rcv});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllArchPairs, CodecRoundTrip, ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<RoundTripCase>& info) {
                           return std::string(info.param.codec) + "_" + info.param.sender + "_to_" +
                                  info.param.receiver;
                         });

// -- pinned wire bytes ------------------------------------------------------------
//
// A round trip cannot see a layout change made identically on both sides.
// These digests can: each is FNV-1a-64 over the frames one codec emits for
// one message from all six sender architectures, in arch-table order.

std::uint64_t wire_digest(const Codec& codec, const DataDesc& desc, const Value& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  for (const ArchDesc& sender : arch_table()) {
    const auto wire = codec.encode(desc, v, sender);
    for (int i = 0; i < 8; ++i)
      fold(static_cast<std::uint8_t>(wire.size() >> (8 * i)));
    for (std::uint8_t b : wire)
      fold(b);
  }
  return h;
}

TEST(CodecWire, EncodingsArePinned) {
  ASSERT_EQ(arch_table().size(), 6u);
  sg::xbt::Rng rng(2006);
  const Value pastry = make_pastry_message(rng, 64);
  struct Pin {
    const char* codec;
    std::uint64_t sink, sink_null, pastry;
  };
  const Pin pins[] = {
      {"gras", 0xf69d99adc44a1c10ULL, 0xdf6dcb7accabdc0aULL, 0xc2e25a5ee6753e2cULL},
      {"mpich", 0xcbe42fb3acf20b89ULL, 0x7062158e81a4dac1ULL, 0x3abe67c8dc46ce6dULL},
      {"omniorb", 0x8eb4de081bd68eccULL, 0x1a9dc086322a310eULL, 0xa6d778ac85509770ULL},
      {"pbio", 0x675bbf4b10315266ULL, 0x670d0ed77c68e478ULL, 0xbb466e192e8afae4ULL},
      {"xml", 0xcd8db3585627ed21ULL, 0x6ff9cb68a5ba6f05ULL, 0xc9924ecd775fdf85ULL},
  };
  for (const Pin& p : pins) {
    const Codec& codec = codec_by_name(p.codec);
    EXPECT_EQ(wire_digest(codec, *kitchen_sink_desc(), kitchen_sink_value(false)), p.sink) << p.codec;
    EXPECT_EQ(wire_digest(codec, *kitchen_sink_desc(), kitchen_sink_value(true)), p.sink_null)
        << p.codec;
    EXPECT_EQ(wire_digest(codec, *pastry_message_desc(), pastry), p.pastry) << p.codec;
  }
}

// -- codec specifics -----------------------------------------------------------------

TEST(Ndr, SameArchIsSmallerThanXdrForNarrowTypes) {
  // NDR keeps an int16 at 2 bytes; XDR inflates it to 4.
  auto desc = DataDesc::fixed_array(DataDesc::scalar(CType::kInt16, "v"), 64);
  ValueList vals;
  for (int i = 0; i < 64; ++i)
    vals.emplace_back(i);
  const Value v{ValueList(vals)};
  const auto ndr = ndr_codec().encode(*desc, v, arch_by_name("x86"));
  const auto xdr = xdr_codec().encode(*desc, v, arch_by_name("x86"));
  EXPECT_LT(ndr.size(), xdr.size());
}

TEST(Ndr, CarriesSenderArchId) {
  auto desc = datadesc_by_name("int");
  const auto wire = ndr_codec().encode(*desc, Value(1), arch_by_name("sparc"));
  EXPECT_EQ(wire[0], arch_by_name("sparc").id);
}

TEST(Ndr, LongWidthFollowsSenderArch) {
  auto desc = datadesc_by_name("long");
  const auto wire32 = ndr_codec().encode(*desc, Value(1), arch_by_name("x86"));
  const auto wire64 = ndr_codec().encode(*desc, Value(1), arch_by_name("amd64"));
  EXPECT_EQ(wire32.size(), 1u + 4u + 3u);  // arch byte + aligned(4) int32... padding
  EXPECT_GT(wire64.size(), wire32.size());
}

TEST(Ndr, ReceiverCannotRepresentWideLong) {
  // A 64-bit long from amd64 that exceeds 32 bits must be rejected by an
  // ILP32 receiver (receiver-makes-right failure mode).
  auto desc = datadesc_by_name("long");
  const Value big(int64_t{1} << 40);
  const auto wire = ndr_codec().encode(*desc, big, arch_by_name("amd64"));
  EXPECT_NO_THROW(ndr_codec().decode(*desc, wire, arch_by_name("amd64")));
  EXPECT_THROW(ndr_codec().decode(*desc, wire, arch_by_name("x86")), sg::xbt::InvalidArgument);
}

TEST(Ndr, ValueTooWideForSenderRejected) {
  auto desc = datadesc_by_name("long");
  EXPECT_THROW(ndr_codec().encode(*desc, Value(int64_t{1} << 40), arch_by_name("x86")),
               sg::xbt::InvalidArgument);
}

TEST(Xdr, CanonicalFormIsArchIndependent) {
  auto desc = pastry_message_desc();
  sg::xbt::Rng rng(7);
  const Value msg = make_pastry_message(rng, 64);
  const auto a = xdr_codec().encode(*desc, msg, arch_by_name("x86"));
  const auto b = xdr_codec().encode(*desc, msg, arch_by_name("sparc"));
  EXPECT_EQ(a, b);  // sender layout does not leak into XDR
}

TEST(Cdr, EndianFlagHonored) {
  auto desc = datadesc_by_name("int");
  const auto le = cdr_codec().encode(*desc, Value(0x01020304), arch_by_name("x86"));
  const auto be = cdr_codec().encode(*desc, Value(0x01020304), arch_by_name("sparc"));
  EXPECT_NE(le, be);
  EXPECT_EQ(cdr_codec().decode(*desc, le, arch_by_name("sparc")).as_int(), 0x01020304);
  EXPECT_EQ(cdr_codec().decode(*desc, be, arch_by_name("x86")).as_int(), 0x01020304);
}

TEST(Pbio, DetectsFormatMismatch) {
  auto desc_a = DataDesc::struct_("m", {{"x", datadesc_by_name("int")}});
  auto desc_b = DataDesc::struct_("m", {{"y", datadesc_by_name("int")}});
  const auto wire = pbio_codec().encode(*desc_a, Value(ValueStruct{{"x", Value(1)}}),
                                        arch_by_name("x86"));
  EXPECT_THROW(pbio_codec().decode(*desc_b, wire, arch_by_name("x86")), sg::xbt::InvalidArgument);
}

TEST(Xml, EscapesMarkup) {
  auto desc = datadesc_by_name("string");
  const Value v(std::string("a<b>&c\"d"));
  const auto wire = xml_codec().encode(*desc, v, arch_by_name("x86"));
  const std::string text(wire.begin(), wire.end());
  EXPECT_EQ(text.find("a<b>"), std::string::npos);  // must be escaped
  EXPECT_EQ(xml_codec().decode(*desc, wire, arch_by_name("sparc")).as_string(), "a<b>&c\"d");
}

TEST(Xml, IsLargestEncoding) {
  auto desc = pastry_message_desc();
  sg::xbt::Rng rng(11);
  const Value msg = make_pastry_message(rng, 128);
  const auto& x86 = arch_by_name("x86");
  const size_t ndr = ndr_codec().encode(*desc, msg, x86).size();
  const size_t xml = xml_codec().encode(*desc, msg, x86).size();
  EXPECT_GT(xml, 2 * ndr);
}

/// An XML frame holding one scalar element with the given text.
std::vector<std::uint8_t> xml_scalar_frame(const std::string& text) {
  const std::string frame = "<?xml version=\"1.0\"?>\n<s>" + text + "</s>\n";
  return {frame.begin(), frame.end()};
}

TEST(Xml, ScalarTextMustBeOneWholeNumber) {
  const auto& x86 = arch_by_name("x86");
  for (const char* type : {"int", "int64", "uint64", "double"})
    for (const char* text : {"12abc", "", " 7", "7 ", "99999999999999999999999", "1e999", "-1e999"}) {
      if (std::string(type) == "double" && std::string(text) == "99999999999999999999999")
        continue;  // a double holds it
      EXPECT_THROW(xml_codec().decode(*datadesc_by_name(type), xml_scalar_frame(text), x86),
                   sg::xbt::InvalidArgument)
          << type << " '" << text << "'";
    }
  EXPECT_THROW(xml_codec().decode(*datadesc_by_name("uint64"), xml_scalar_frame("-1"), x86),
               sg::xbt::InvalidArgument);
  EXPECT_EQ(xml_codec().decode(*datadesc_by_name("int"), xml_scalar_frame("-7"), x86).as_int(), -7);
}

TEST(Xml, EveryEncodedScalarRoundTrips) {
  const auto& x86 = arch_by_name("x86");
  auto round_trip = [&](const char* type, const Value& v) {
    const DataDescPtr desc = datadesc_by_name(type);
    return xml_codec().decode(*desc, xml_codec().encode(*desc, v, x86), x86);
  };
  for (double x : {0.1, -0.0, 1e308, std::numeric_limits<double>::max(), std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity()}) {
    const double got = round_trip("double", Value(x)).as_float();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(x)) << x;
  }
  EXPECT_TRUE(std::isnan(round_trip("double", Value(std::numeric_limits<double>::quiet_NaN())).as_float()));
  for (std::int64_t x : {std::numeric_limits<std::int64_t>::min(), std::numeric_limits<std::int64_t>::max()})
    EXPECT_EQ(round_trip("int64", Value(x)).as_int(), x);
  EXPECT_EQ(round_trip("uint64", Value(std::numeric_limits<std::uint64_t>::max())).as_uint(),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Codecs, TruncatedBuffersRejected) {
  auto desc = pastry_message_desc();
  sg::xbt::Rng rng(3);
  const Value msg = make_pastry_message(rng, 64);
  for (const Codec* codec : all_codecs()) {
    auto wire = codec->encode(*desc, msg, arch_by_name("x86"));
    wire.resize(wire.size() / 2);
    EXPECT_THROW(codec->decode(*desc, wire, arch_by_name("x86")), sg::xbt::InvalidArgument)
        << codec->name();
  }
}

TEST(Codecs, SpecialFloats) {
  auto desc = datadesc_by_name("double");
  for (const Codec* codec : all_codecs()) {
    for (double v : {0.0, -0.0, 1e-300, -1e300, std::numeric_limits<double>::infinity()}) {
      const auto wire = codec->encode(*desc, Value(v), arch_by_name("ppc"));
      const Value out = codec->decode(*desc, wire, arch_by_name("x86"));
      EXPECT_EQ(out.as_float(), v) << codec->name();
    }
    // NaN compares unequal to itself; check bit-level survival separately.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto wire = codec->encode(*desc, Value(nan), arch_by_name("ppc"));
    EXPECT_TRUE(std::isnan(codec->decode(*desc, wire, arch_by_name("x86")).as_float()))
        << codec->name();
  }
}

TEST(Codecs, EmptyStringAndEmptyDynArray) {
  auto desc = DataDesc::struct_("m", {{"s", DataDesc::string("s")},
                                      {"d", DataDesc::dyn_array(datadesc_by_name("int"), "d")}});
  const Value v(ValueStruct{{"s", Value(std::string())}, {"d", Value(ValueList{})}});
  for (const Codec* codec : all_codecs()) {
    const auto wire = codec->encode(*desc, v, arch_by_name("sparc"));
    EXPECT_EQ(codec->decode(*desc, wire, arch_by_name("x86")), v) << codec->name();
  }
}

// -- corrupt length fields --------------------------------------------------------
//
// A string length or dynamic-array count comes straight off the wire. One
// flipped length makes it claim about 4 GB; the decoder must reject it
// against the bytes actually left, before sizing a string or a list from it.

/// Encode {s: "abcdefgh", d: [0x5A5A5A5A]}, overwrite the 4-byte length field
/// just before `marker` with 0xFFFFFFFF, and decode.
void expect_flipped_length_rejected(const Codec& codec, const std::string& marker) {
  auto desc = DataDesc::struct_(
      "m", {{"s", DataDesc::string("s")},
            {"d", DataDesc::dyn_array(DataDesc::scalar(CType::kInt32, "i"), "d")}});
  const Value v(ValueStruct{{"s", Value(std::string("abcdefgh"))},
                            {"d", Value(ValueList{Value(std::int64_t{0x5A5A5A5A})})}});
  auto wire = codec.encode(*desc, v, arch_by_name("x86"));
  const auto at = std::search(wire.begin(), wire.end(), marker.begin(), marker.end());
  ASSERT_NE(at, wire.end()) << codec.name() << ": marker not on the wire";
  ASSERT_GE(at - wire.begin(), 4) << codec.name();
  std::fill(at - 4, at, std::uint8_t{0xFF});
  try {
    codec.decode(*desc, wire, arch_by_name("x86"));
    ADD_FAILURE() << codec.name() << ": corrupt length accepted";
  } catch (const sg::xbt::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::string(codec.name()) + ": length 4294967295 at offset"), std::string::npos)
        << what;
  }
}

void expect_flipped_lengths_rejected(const Codec& codec) {
  expect_flipped_length_rejected(codec, "abcdefgh");          // string length
  expect_flipped_length_rejected(codec, "\x5A\x5A\x5A\x5A");  // array count
}

TEST(Ndr, FlippedLengthRejectedBeforeAllocating) { expect_flipped_lengths_rejected(ndr_codec()); }
TEST(Xdr, FlippedLengthRejectedBeforeAllocating) { expect_flipped_lengths_rejected(xdr_codec()); }
TEST(Cdr, FlippedLengthRejectedBeforeAllocating) { expect_flipped_lengths_rejected(cdr_codec()); }
TEST(Pbio, FlippedLengthRejectedBeforeAllocating) { expect_flipped_lengths_rejected(pbio_codec()); }

TEST(Cdr, StringWithoutNulRejected) {
  auto desc = datadesc_by_name("string");
  auto wire = cdr_codec().encode(*desc, Value("abc"), arch_by_name("x86"));
  ASSERT_EQ(wire.back(), 0);
  wire.back() = 'd';
  try {
    cdr_codec().decode(*desc, wire, arch_by_name("x86"));
    ADD_FAILURE() << "a string without its NUL decoded";
  } catch (const sg::xbt::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("omniorb: string terminator"), std::string::npos) << e.what();
  }
}

// -- values of the wrong shape ------------------------------------------------------
//
// Encoders walk the description and index the value by it, so a value with
// fewer or more struct fields or fixed-array entries must be refused, naming
// the codec and the description node, before anything is read past its end.

TEST(Codecs, EncodeRejectsValueOfWrongShape) {
  auto desc = DataDesc::struct_(
      "pair", {{"a", datadesc_by_name("int")},
               {"arr", DataDesc::fixed_array(DataDesc::scalar(CType::kInt16, "e"), 3, "arr")}});
  const ValueList three{Value(1), Value(2), Value(3)};
  auto pair = [](ValueList arr) {
    return Value(ValueStruct{{"a", Value(1)}, {"arr", Value(std::move(arr))}});
  };
  Value long_struct = pair(three);
  long_struct.as_struct().emplace_back("extra", Value(2));
  const struct {
    const char* what;
    Value v;
    const char* node;
  } cases[] = {
      // The short struct comes last: an unchecked encoder reads past its end.
      {"long struct", long_struct, "'pair'"},
      {"short fixed array", pair({Value(1), Value(2)}), "'arr'"},
      {"long fixed array", pair({Value(1), Value(2), Value(3), Value(4)}), "'arr'"},
      {"short struct", Value(ValueStruct{{"a", Value(1)}}), "'pair'"},
  };
  ASSERT_NO_THROW(desc->check(pair(three)));
  for (const auto& c : cases) {
    for (const Codec* codec : all_codecs()) {
      try {
        codec->encode(*desc, c.v, arch_by_name("x86"));
        ADD_FAILURE() << codec->name() << ": " << c.what << " encoded";
      } catch (const sg::xbt::InvalidArgument& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind(std::string(codec->name()) + ": ", 0), 0u) << what;
        EXPECT_NE(what.find(c.node), std::string::npos) << what;
      }
    }
  }
}

// -- mutated frames -----------------------------------------------------------------
//
// Whatever bytes arrive, a decoder either returns a value or throws
// xbt::InvalidArgument: no crash, no other exception type. Seeded byte flips
// and truncations of Pastry and kitchen-sink frames, sampled per codec and
// architecture pair.

TEST(Codecs, MutatedFramesDecodeOrThrowInvalidArgument) {
  sg::xbt::Rng pastry_rng(2006);
  const Value pastry = make_pastry_message(pastry_rng, 64);
  const std::pair<const char*, const char*> pairs[] = {
      {"x86", "sparc"}, {"amd64", "amd64"}, {"sparc64", "arm32"}};
  std::uint64_t seed = 0;
  for (const Codec* codec : all_codecs()) {
    for (const auto& [snd, rcv] : pairs) {
      const ArchDesc& receiver = arch_by_name(rcv);
      const std::vector<std::uint8_t> frames[] = {
          codec->encode(*pastry_message_desc(), pastry, arch_by_name(snd)),
          codec->encode(*kitchen_sink_desc(), kitchen_sink_value(false), arch_by_name(snd))};
      sg::xbt::Rng rng(++seed);
      int accepted = 0;
      int rejected = 0;
      for (int k = 0; k < 512; ++k) {
        const bool pastry_frame = k % 2 == 0;
        auto wire = frames[pastry_frame ? 0 : 1];
        if (rng.uniform01() < 0.75)
          wire[rng.uniform_int(0, wire.size() - 1)] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        else
          wire.resize(rng.uniform_int(0, wire.size() - 1));
        const DataDesc& desc = pastry_frame ? *pastry_message_desc() : *kitchen_sink_desc();
        try {
          codec->decode(desc, wire, receiver);
          ++accepted;
        } catch (const sg::xbt::InvalidArgument&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << codec->name() << " " << snd << "->" << rcv << " mutation " << k << ": "
                        << e.what();
        } catch (...) {
          ADD_FAILURE() << codec->name() << " " << snd << "->" << rcv << " mutation " << k;
        }
      }
      EXPECT_GT(accepted, 0) << codec->name() << " " << snd << "->" << rcv;
      EXPECT_GT(rejected, 0) << codec->name() << " " << snd << "->" << rcv;
    }
  }
}

TEST(Pastry, GeneratedMessagesMatchDesc) {
  sg::xbt::Rng rng(1);
  for (int i = 0; i < 20; ++i)
    EXPECT_NO_THROW(pastry_message_desc()->check(make_pastry_message(rng, 100)));
}

}  // namespace
