// Strict line/token parsing shared by the storage formats (snapshot
// payloads and checkpoint manifests). Everything here rejects rather than
// guesses: a field either parses exactly or throws InvalidArgument with a
// "storage:" message naming what was malformed -- the loud-failure half of
// the snapshot contract (storage/snapshot.hpp).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"

namespace treesat::wire {

/// Strict all-digits decimal parse with overflow rejection.
inline std::uint64_t parse_u64(std::string_view tok, const char* what) {
  TS_REQUIRE(!tok.empty(), "storage: empty " << what);
  std::uint64_t value = 0;
  for (const char c : tok) {
    TS_REQUIRE(c >= '0' && c <= '9', "storage: " << what << " '" << tok << "' is not a number");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    TS_REQUIRE(value <= (UINT64_MAX - digit) / 10, "storage: " << what << " overflows");
    value = value * 10 + digit;
  }
  return value;
}

/// Strict lowercase-hex parse (1..16 digits).
inline std::uint64_t parse_hex64(std::string_view tok, const char* what) {
  TS_REQUIRE(!tok.empty() && tok.size() <= 16, "storage: malformed " << what);
  std::uint64_t value = 0;
  bool bad = false;
  for (const char c : tok) {
    // Branch-free: hex digits are random data, so a digit/letter branch
    // would mispredict on every other character.
    bad |= !((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
    value = (value << 4) | static_cast<std::uint64_t>((c & 0xf) + 9 * ((c >> 6) & 1));
  }
  TS_REQUIRE(!bad, "storage: " << what << " '" << tok << "' is not lowercase hex");
  return value;
}

/// Strict double parse: the token must be consumed exactly. Storage doubles
/// are written by shortest_round_trip, so this reparse is exact.
/// std::from_chars rather than sscanf: it needs no null-terminated copy and
/// parses several times faster, which is what keeps decode_snapshot ahead
/// of a cold re-solve (the whole point of restoring) -- snapshots are
/// mostly frontier points, i.e. mostly doubles.
inline double parse_double_tok(std::string_view tok, const char* what) {
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), value);
  TS_REQUIRE(ec == std::errc() && ptr == tok.data() + tok.size(),
             "storage: " << what << " '" << tok << "' is not a number");
  return value;
}

inline std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a 64-bit (the storage content hash): one byte, then a range.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline std::uint64_t fnv1a64_step(std::uint64_t hash, char byte) {
  return (hash ^ static_cast<unsigned char>(byte)) * 0x100000001b3ULL;
}
inline std::uint64_t fnv1a64_update(std::uint64_t hash, const char* begin, const char* end) {
  for (; begin != end; ++begin) hash = fnv1a64_step(hash, *begin);
  return hash;
}

/// Splits a payload line on single spaces; rejects leading/trailing/double
/// spaces so every encoding has exactly one parse.
inline std::vector<std::string_view> split_tokens(std::string_view line, const char* what) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t space = line.find(' ', pos);
    const std::size_t end = space == std::string_view::npos ? line.size() : space;
    TS_REQUIRE(end > pos, "storage: stray space in " << what << " line");
    tokens.push_back(line.substr(pos, end - pos));
    pos = space == std::string_view::npos ? line.size() : space + 1;
    TS_REQUIRE(pos < line.size() || space == std::string_view::npos,
               "storage: trailing space in " << what << " line");
  }
  TS_REQUIRE(!tokens.empty(), "storage: empty " << what << " line");
  return tokens;
}

/// Token cursor over one payload line, for the hot lines (cache entries,
/// frontier points): no token vector, and every byte consumed is folded
/// into the owning LineReader's running content hash token by token, so
/// the serial hash chain overlaps the parse instead of costing a pass of
/// its own. Same strictness as split_tokens: single spaces only, every
/// token non-empty, finish() rejects leftovers.
class TokenCursor {
 public:
  TokenCursor(std::string_view line, const char* what, std::uint64_t& hash)
      : line_(line), what_(what), hash_(hash) {}

  /// Consumes (and hashes) one token and its separating space.
  std::string_view token() {
    const char* const begin = line_.data() + pos_;
    const char* const end = line_.data() + line_.size();
    TS_REQUIRE(begin != end, "storage: truncated " << what_ << " line");
    const char* p = begin;
    while (p != end && *p != ' ') ++p;
    const std::string_view tok(begin, static_cast<std::size_t>(p - begin));
    TS_REQUIRE(!tok.empty(), "storage: stray space in " << what_ << " line");
    if (p != end) {
      ++p;  // the single separating space
      TS_REQUIRE(p != end, "storage: trailing space in " << what_ << " line");
    }
    hash_ = fnv1a64_update(hash_, begin, p);
    pos_ = static_cast<std::size_t>(p - line_.data());
    return tok;
  }

  /// Consumes one token and requires it to equal `word` exactly.
  void expect(std::string_view word) {
    TS_REQUIRE(token() == word,
               "storage: expected a '" << word << "' token in " << what_ << " line");
  }

  std::uint64_t take_u64(const char* field) { return parse_u64(token(), field); }
  std::uint64_t take_hex64(const char* field) { return parse_hex64(token(), field); }

  /// Consumes `count` decimal tokens that delta-encode strictly increasing
  /// uint32 values (first absolute, then positive gaps), appending the
  /// values to `out`. decode_snapshot's innermost loop -- cut positions are
  /// most of a snapshot's tokens -- so it scans with local pointers and
  /// tests each token once, not each character.
  void take_increasing_u32(std::uint64_t count, const char* field,
                           std::vector<std::uint32_t>& out) {
    const char* p = line_.data() + pos_;
    const char* const end = line_.data() + line_.size();
    std::uint64_t value = 0;
    std::uint64_t hash = hash_;
    for (std::uint64_t c = 0; c < count; ++c) {
      TS_REQUIRE(p != end, "storage: truncated " << what_ << " line");
      const char* const begin = p;
      std::uint64_t delta = 0;
      unsigned bad = 0;
      for (; p != end && *p != ' '; ++p) {  // one loop parses and hashes
        const unsigned digit = static_cast<unsigned char>(*p) - unsigned{'0'};
        bad |= digit > 9 ? 1u : 0u;
        delta = delta * 10 + digit;
        hash = fnv1a64_step(hash, *p);
      }
      TS_REQUIRE(bad == 0, "storage: " << field << " is not a number");
      TS_REQUIRE(p != begin, "storage: empty " << field);
      TS_REQUIRE(p - begin <= 10 && delta <= UINT32_MAX - value,
                 "storage: " << field << " overflows");
      TS_REQUIRE(c == 0 || delta > 0,
                 "storage: " << field << " delta of zero (values must be strictly increasing)");
      value += delta;
      out.push_back(static_cast<std::uint32_t>(value));
      if (p != end) {
        hash = fnv1a64_step(hash, *p++);  // the single separating space
        TS_REQUIRE(p != end, "storage: trailing space in " << what_ << " line");
      }
    }
    hash_ = hash;
    pos_ = static_cast<std::size_t>(p - line_.data());
  }

  /// Requires the whole line to have been consumed (and hashes its newline).
  void finish() {
    TS_REQUIRE(pos_ == line_.size(),
               "storage: trailing tokens in " << what_ << " line");
    hash_ = fnv1a64_update(hash_, "\n", "\n" + 1);
  }

 private:
  std::string_view line_;
  const char* what_;
  std::uint64_t& hash_;
  std::size_t pos_ = 0;
};

/// Sequential reader over a payload; every line must end in '\n'. Keeps
/// the FNV-1a hash of every byte consumed, so a decoder can check a content
/// hash in the same pass as its parse.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  std::string_view next(const char* what) {
    const std::string_view line = take(what);
    hash_ = fnv1a64_update(hash_, line.data(), line.data() + line.size() + 1);
    return line;
  }

  /// The next line as a token cursor, which hashes it as it parses it.
  TokenCursor cursor(const char* what) { return TokenCursor(take(what), what, hash_); }

  [[nodiscard]] bool done() const { return pos_ == text_.size(); }

  /// FNV-1a of the bytes consumed so far: once done(), and with every
  /// cursor finished, fnv1a64 of the whole text.
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  std::string_view take(const char* what) {
    TS_REQUIRE(pos_ < text_.size(), "storage: truncated payload, expected " << what);
    const std::size_t nl = text_.find('\n', pos_);
    TS_REQUIRE(nl != std::string_view::npos,
               "storage: payload line for " << what << " lacks a newline");
    const std::string_view line = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return line;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::uint64_t hash_ = kFnvOffsetBasis;
};

/// Rest-of-line field ("plan <spec>", "cold_reason <text>"): the keyword
/// alone encodes the empty value, "<keyword> <rest>" everything else.
inline std::string rest_of_line(std::string_view line, std::string_view keyword) {
  TS_REQUIRE(line.substr(0, keyword.size()) == keyword &&
                 (line.size() == keyword.size() || line[keyword.size()] == ' '),
             "storage: expected a '" << keyword << "' line, got '" << line << "'");
  if (line.size() == keyword.size()) return std::string();
  return std::string(line.substr(keyword.size() + 1));
}

}  // namespace treesat::wire
