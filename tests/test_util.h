// Shared test helpers.
#ifndef STARK_TESTS_TEST_UTIL_H_
#define STARK_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/envelope.h"
#include "geometry/geometry.h"

namespace stark {
namespace test {

// ---------------------------------------------------------------------------
// A minimal strict JSON parser, just enough to round-trip the observability
// exporters' output (metrics JSON, Chrome traces, flight-recorder dumps,
// profile trees). Parsing failures surface as ADD_FAILURE + null values.
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  bool IsObject() const { return std::holds_alternative<JsonObject>(v); }
  bool IsArray() const { return std::holds_alternative<JsonArray>(v); }
  const JsonObject& AsObject() const { return std::get<JsonObject>(v); }
  const JsonArray& AsArray() const { return std::get<JsonArray>(v); }
  double AsNumber() const { return std::get<double>(v); }
  bool AsBool() const { return std::get<bool>(v); }
  const std::string& AsString() const { return std::get<std::string>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    ok_ = true;
    pos_ = 0;
    *out = ParseValue();
    SkipWs();
    return ok_ && pos_ == text_.size();
  }

 private:
  void Fail() { ok_ = false; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) {
      Fail();
      return {};
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  JsonValue ParseObject() {
    JsonObject obj;
    if (!Consume('{')) Fail();
    SkipWs();
    if (Consume('}')) return {obj};
    do {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        Fail();
        return {};
      }
      JsonValue key = ParseString();
      if (!ok_ || !Consume(':')) {
        Fail();
        return {};
      }
      obj[key.AsString()] = ParseValue();
      if (!ok_) return {};
    } while (Consume(','));
    if (!Consume('}')) Fail();
    return {obj};
  }

  JsonValue ParseArray() {
    JsonArray arr;
    if (!Consume('[')) Fail();
    SkipWs();
    if (Consume(']')) return {arr};
    do {
      arr.push_back(ParseValue());
      if (!ok_) return {};
    } while (Consume(','));
    if (!Consume(']')) Fail();
    return {arr};
  }

  JsonValue ParseString() {
    std::string s;
    if (!Consume('"')) Fail();
    while (ok_ && pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          Fail();
          break;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'n': s += '\n'; break;
          case 't': s += '\t'; break;
          case 'r': s += '\r'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) {
              Fail();
            } else {
              pos_ += 4;  // validated as hex-ish, decoded as '?'
              s += '?';
            }
            break;
          default: Fail();
        }
      } else {
        s += c;
      }
    }
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      Fail();
      return {};
    }
    ++pos_;
    return {s};
  }

  JsonValue ParseBool() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return {true};
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return {false};
    }
    Fail();
    return {};
  }

  JsonValue ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return {nullptr};
    }
    Fail();
    return {};
  }

  JsonValue ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail();
      return {};
    }
    return {std::stod(text_.substr(start, pos_ - start))};
  }

  const std::string& text_;
  size_t pos_ = 0;
  bool ok_ = true;
};

inline JsonValue ParseJsonOrFail(const std::string& text) {
  JsonValue v;
  JsonParser parser(text);
  EXPECT_TRUE(parser.Parse(&v)) << "invalid JSON: " << text.substr(0, 200);
  return v;
}

/// A temp path unique to this test process. gtest_discover_tests runs every
/// test in its own process, and ctest may run them concurrently — fixed
/// names under TempDir() would race.
inline std::string UniqueTempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "." +
         std::to_string(::getpid());
}

// ---------------------------------------------------------------------------
// Seeded random-geometry generators, shared by the predicate fuzz suite and
// the packed-index / prepared-geometry differential tests so every suite
// exercises the same mixed population shapes.
// ---------------------------------------------------------------------------

/// Side length of the square universe the generators draw from.
inline constexpr double kFuzzUniverse = 100.0;

inline Coordinate RandomCoord(Rng* rng) {
  return Coordinate{rng->Uniform(0.0, kFuzzUniverse),
                    rng->Uniform(0.0, kFuzzUniverse)};
}

inline Envelope RandomEnvelope(Rng* rng, double max_extent) {
  const Coordinate c = RandomCoord(rng);
  // Strictly positive extents: MakeBox of the envelope must be a valid
  // (non-degenerate) polygon ring.
  const double w = rng->Uniform(0.05, max_extent);
  const double h = rng->Uniform(0.05, max_extent);
  return Envelope(c.x, c.y, c.x + w, c.y + h);
}

/// A simple (non-self-intersecting) polygon: \p n vertices on a star around
/// \p center, angles sorted, radius in [0.4, 1] x \p base_radius per vertex.
inline Geometry StarPolygonAround(Rng* rng, const Coordinate& center,
                                  double base_radius, int n) {
  std::vector<double> angles;
  for (int i = 0; i < n; ++i) angles.push_back(rng->Uniform(0.0, 6.2831853));
  std::sort(angles.begin(), angles.end());
  Ring shell;
  for (int i = 0; i < n; ++i) {
    const double r = base_radius * rng->Uniform(0.4, 1.0);
    shell.push_back(Coordinate{center.x + r * std::cos(angles[i]),
                               center.y + r * std::sin(angles[i])});
  }
  auto polygon = Geometry::MakePolygon(std::move(shell));
  // Degenerate draws (collinear / duplicate vertices) fall back to a box
  // so the population size stays fixed.
  if (!polygon.ok()) {
    return Geometry::MakeBox(Envelope(center.x - 1, center.y - 1,
                                      center.x + 1, center.y + 1));
  }
  return polygon.ValueOrDie();
}

/// A star polygon of 3-9 vertices somewhere in the fuzz universe.
inline Geometry RandomStarPolygon(Rng* rng) {
  const Coordinate center = RandomCoord(rng);
  const double base_radius = rng->Uniform(0.5, 8.0);
  const int n = static_cast<int>(rng->UniformInt(3, 9));
  return StarPolygonAround(rng, center, base_radius, n);
}

/// One random geometry of a mixed type: point, box, star polygon,
/// linestring, or multipoint.
inline Geometry RandomGeometry(Rng* rng) {
  switch (rng->UniformInt(0, 4)) {
    case 0:
      return Geometry::MakePoint(RandomCoord(rng));
    case 1:
      return Geometry::MakeBox(RandomEnvelope(rng, 10.0));
    case 2:
      return RandomStarPolygon(rng);
    case 3: {
      const int n = static_cast<int>(rng->UniformInt(2, 6));
      std::vector<Coordinate> coords;
      const Coordinate start = RandomCoord(rng);
      coords.push_back(start);
      for (int i = 1; i < n; ++i) {
        coords.push_back(Coordinate{start.x + rng->Uniform(-6.0, 6.0),
                                    start.y + rng->Uniform(-6.0, 6.0)});
      }
      auto line = Geometry::MakeLineString(std::move(coords));
      if (!line.ok()) return Geometry::MakePoint(start);
      return line.ValueOrDie();
    }
    default: {
      const int n = static_cast<int>(rng->UniformInt(2, 5));
      std::vector<Coordinate> coords;
      const Coordinate anchor = RandomCoord(rng);
      for (int i = 0; i < n; ++i) {
        coords.push_back(Coordinate{anchor.x + rng->Uniform(-4.0, 4.0),
                                    anchor.y + rng->Uniform(-4.0, 4.0)});
      }
      auto mp = Geometry::MakeMultiPoint(std::move(coords));
      if (!mp.ok()) return Geometry::MakePoint(anchor);
      return mp.ValueOrDie();
    }
  }
}

/// A reproducible mixed population of \p count geometries.
inline std::vector<Geometry> RandomPopulation(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<Geometry> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(RandomGeometry(&rng));
  return out;
}

}  // namespace test
}  // namespace stark

#endif  // STARK_TESTS_TEST_UTIL_H_
