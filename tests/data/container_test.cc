#include "data/container.h"

#include <gtest/gtest.h>

namespace exotica::data {
namespace {

class ContainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StructType addr("Addr");
    ASSERT_TRUE(addr.AddScalar("City", ScalarType::kString).ok());
    ASSERT_TRUE(reg_.Register(std::move(addr)).ok());

    StructType order("Order");
    ASSERT_TRUE(order.AddScalar("Id", ScalarType::kLong).ok());
    ASSERT_TRUE(
        order.AddScalar("Total", ScalarType::kFloat, Value(0.0)).ok());
    ASSERT_TRUE(order.AddStruct("Ship", "Addr").ok());
    ASSERT_TRUE(reg_.Register(std::move(order)).ok());
  }

  TypeRegistry reg_;
};

TEST_F(ContainerTest, DefaultsAndSetGet) {
  auto c = Container::Create(reg_, "Order");
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->Get("Id")->is_null());       // no default declared
  EXPECT_EQ(*c->Get("Total"), Value(0.0));    // declared default
  ASSERT_TRUE(c->Set("Id", Value(int64_t{7})).ok());
  EXPECT_EQ(c->Get("Id")->as_long(), 7);
  ASSERT_TRUE(c->Set("Ship.City", Value("Oslo")).ok());
  EXPECT_EQ(c->Get("Ship.City")->as_string(), "Oslo");
}

TEST_F(ContainerTest, TypeCheckingOnSet) {
  auto c = Container::Create(reg_, "Order");
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->Set("Id", Value("nope")).IsInvalidArgument());
  EXPECT_TRUE(c->Set("Nope", Value(int64_t{1})).IsNotFound());
  // Long widens into a float member.
  ASSERT_TRUE(c->Set("Total", Value(int64_t{3})).ok());
  EXPECT_TRUE(c->Get("Total")->is_float());
}

TEST_F(ContainerTest, ResetRestoresDefaults) {
  auto c = Container::Create(reg_, "Order");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->Set("Total", Value(9.5)).ok());
  c->Reset();
  EXPECT_EQ(*c->Get("Total"), Value(0.0));
}

TEST_F(ContainerTest, SerializeDeserializeRoundTrip) {
  auto c = Container::Create(reg_, "Order");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->Set("Id", Value(int64_t{12})).ok());
  ASSERT_TRUE(c->Set("Ship.City", Value("Lima\nPeru")).ok());

  auto d = Container::Create(reg_, "Order");
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(d->Deserialize(c->Serialize()).ok());
  EXPECT_TRUE(*c == *d);
}

TEST_F(ContainerTest, DeserializeRejectsCorruption) {
  auto c = Container::Create(reg_, "Order");
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->Deserialize("no-equals-here").IsCorruption());
  EXPECT_FALSE(c->Deserialize("Nope=1").ok());
  // The message quotes the offending line as it stood, blanks included.
  Status st = c->Deserialize("Id=1\n no-equals-here \nId=2\n");
  EXPECT_EQ(st.message(), "container image line missing '=':  no-equals-here ");
}

TEST_F(ContainerTest, UnknownTypeFails) {
  EXPECT_TRUE(Container::Create(reg_, "Ghost").status().IsValidationError());
}

TEST_F(ContainerTest, MappingValidatesAndApplies) {
  auto src = Container::Create(reg_, "Order");
  auto dst = Container::Create(reg_, "Order");
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dst.ok());

  DataMapping map;
  map.Add("Id", "Id");
  map.Add("Ship.City", "Ship.City");
  ASSERT_TRUE(map.Validate(*src, *dst).ok());

  ASSERT_TRUE(src->Set("Id", Value(int64_t{5})).ok());
  // Ship.City left null: must be skipped, not erased.
  ASSERT_TRUE(dst->Set("Ship.City", Value("Kept")).ok());
  ASSERT_TRUE(map.Apply(*src, &*dst).ok());
  EXPECT_EQ(dst->Get("Id")->as_long(), 5);
  EXPECT_EQ(dst->Get("Ship.City")->as_string(), "Kept");
}

TEST_F(ContainerTest, MappingTypeMismatchRejected) {
  auto src = Container::Create(reg_, "Order");
  auto dst = Container::Create(reg_, "Order");
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dst.ok());
  DataMapping map;
  map.Add("Ship.City", "Id");  // string -> long
  EXPECT_TRUE(map.Validate(*src, *dst).IsValidationError());

  DataMapping widening;
  widening.Add("Id", "Total");  // long -> float is fine
  EXPECT_TRUE(widening.Validate(*src, *dst).ok());
}

TEST_F(ContainerTest, DefaultContainerHasRc) {
  Container c = Container::Default(reg_);
  EXPECT_EQ(c.Get("RC")->as_long(), 0);
}

TEST_F(ContainerTest, SlotIndexMatchesDeclarationOrder) {
  auto c = Container::Create(reg_, "Order");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->slot_count(), 3u);
  // Slots follow paths(): the flatten order, stable for every container
  // of this layout.
  for (uint32_t i = 0; i < c->slot_count(); ++i) {
    EXPECT_EQ(c->SlotIndex(c->paths()[i]), i);
  }
  EXPECT_EQ(c->SlotIndex("NoSuch"), Container::kNoSlot);
  EXPECT_EQ(Container().SlotIndex("Id"), Container::kNoSlot);
  EXPECT_EQ(Container().slot_count(), 0u);
}

TEST_F(ContainerTest, GetSlotTracksGetExactly) {
  auto c = Container::Create(reg_, "Order");
  ASSERT_TRUE(c.ok());
  // Never-written container: no slot storage, reads hit the defaults.
  EXPECT_TRUE(c->GetSlot(c->SlotIndex("Id")).is_null());
  EXPECT_EQ(c->GetSlot(c->SlotIndex("Total")), Value(0.0));

  ASSERT_TRUE(c->Set("Id", Value(int64_t{7})).ok());
  EXPECT_EQ(c->GetSlot(c->SlotIndex("Id")), Value(int64_t{7}));
  // Setting one member materializes the value vector; unwritten (null)
  // slots must still read their declared defaults.
  EXPECT_EQ(c->GetSlot(c->SlotIndex("Total")), Value(0.0));
  EXPECT_TRUE(c->GetSlot(c->SlotIndex("Ship.City")).is_null());

  for (const std::string& path : c->paths()) {
    EXPECT_EQ(*c->Get(path), c->GetSlot(c->SlotIndex(path))) << path;
  }

  c->Reset();
  EXPECT_TRUE(c->GetSlot(c->SlotIndex("Id")).is_null());
  EXPECT_EQ(c->GetSlot(c->SlotIndex("Total")), Value(0.0));
}

}  // namespace
}  // namespace exotica::data
