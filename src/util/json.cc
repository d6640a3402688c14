#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace relser {

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;  // value belongs to the pending key; no comma
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

void JsonWriter::Open(char bracket) {
  BeforeValue();
  out_ += bracket;
  needs_comma_.push_back(false);
}

void JsonWriter::Close(char bracket) {
  needs_comma_.pop_back();
  out_ += bracket;
}

void JsonWriter::Key(std::string_view name) {
  BeforeValue();
  Escape(name);
  out_ += ':';
  after_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  Escape(value);
}

void JsonWriter::Escape(std::string_view value) {
  out_ += '"';
  for (const char c : value) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\r':
        out_ += "\\r";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

void JsonWriter::Int(std::int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
}

void JsonWriter::Uint(std::uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
}

void JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out_ += buf;
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
}

bool WriteJsonFile(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return false;
  file << content << '\n';
  file.flush();
  return static_cast<bool>(file);
}

std::string FindRepoRoot(const std::string& marker) {
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::current_path(ec);
  if (ec) return "";
  while (true) {
    if (std::filesystem::exists(dir / marker, ec)) return dir.string();
    const std::filesystem::path parent = dir.parent_path();
    if (parent == dir) return "";
    dir = parent;
  }
}

bool WriteBenchJsonFile(const std::string& filename,
                        const std::string& content, bool smoke,
                        const std::string& tag) {
  bool ok = WriteJsonFile(filename, content);
  const std::string root = FindRepoRoot();
  if (root.empty()) return ok;

  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path root_path(root);
  const fs::path root_copy = root_path / filename;
  // Skip the second write for a smoke run, and when the bench already
  // runs at the root.
  if (!smoke && (!fs::equivalent(root_copy, fs::path(filename), ec) || ec)) {
    ok = WriteJsonFile(root_copy.string(), content) && ok;
  }

  std::string effective_tag = tag;
  if (effective_tag.empty()) {
    if (const char* env = std::getenv("RELSER_BENCH_TAG")) effective_tag = env;
  }
  if (!effective_tag.empty()) {
    std::string stem = filename;
    constexpr std::string_view kExt = ".json";
    if (stem.size() > kExt.size() &&
        stem.compare(stem.size() - kExt.size(), kExt.size(), kExt) == 0) {
      stem.resize(stem.size() - kExt.size());
    }
    const fs::path traj_dir = root_path / "bench" / "trajectory";
    fs::create_directories(traj_dir, ec);
    const fs::path snapshot =
        traj_dir / (stem + "_" + effective_tag + std::string(kExt));
    ok = WriteJsonFile(snapshot.string(), content) && ok;
  }
  return ok;
}

/// Recursive-descent parser over a string_view; depth-bounded so hostile
/// inputs cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    JsonValue value;
    Status status = ParseValue(&value, /*depth=*/0);
    if (!status.ok()) return status;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument(what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type_ = JsonValue::Type::kString;
        return ParseString(&out->string_);
      case 't':
        if (!ConsumeLiteral("true")) return Error("bad literal");
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = true;
        return Status::Ok();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("bad literal");
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = false;
        return Status::Ok();
      case 'n':
        if (!ConsumeLiteral("null")) return Error("bad literal");
        out->type_ = JsonValue::Type::kNull;
        return Status::Ok();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    Consume('{');
    out->type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      if (Status status = ParseString(&key); !status.ok()) return status;
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      if (Status status = ParseValue(&value, depth + 1); !status.ok()) {
        return status;
      }
      out->members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    Consume('[');
    out->type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue value;
      if (Status status = ParseValue(&value, depth + 1); !status.ok()) {
        return status;
      }
      out->items_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    Consume('"');
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // Encode as UTF-8 (surrogate pairs are not recombined; the
          // writer never emits them).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string raw(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(raw.c_str(), &end);
    if (end != raw.c_str() + raw.size()) return Error("malformed number");
    out->type_ = JsonValue::Type::kNumber;
    out->number_ = parsed;
    out->string_ = raw;
    return Status::Ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  JsonParser parser(text);
  return parser.ParseDocument();
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

}  // namespace relser
